"""Neural coding interfaces.

A *coding scheme* (Fig. 1 of the paper) defines how analog values become
spike trains and back: the input encoder, the per-stage neuron dynamics, and
the readout.  :meth:`CodingScheme.bind` instantiates all three for a concrete
converted network, producing a :class:`BoundCoding` the engine can run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.convert.converter import ConvertedNetwork
from repro.snn.neurons import ReadoutAccumulator

__all__ = ["InputEncoder", "AnalogInputEncoder", "BoundCoding", "CodingScheme"]


class InputEncoder:
    """Produces the input-layer spike (or current) tensor at each step.

    Attributes
    ----------
    counts_spikes:
        Whether the emitted tensor represents countable spike events (TTFS,
        phase) or an analog current injection (rate, burst), which generates
        no events.
    constant:
        True when every step emits the identical tensor — lets the engine
        cache the first stage's synaptic drive instead of re-convolving.
    """

    counts_spikes = False
    constant = False

    def reset(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def step(self, t: int) -> np.ndarray | None:
        raise NotImplementedError

    def emission_window(self) -> int | None:
        """Steps after which the encoder is structurally silent, or ``None``.

        Window-scheduled encoders (TTFS, reverse) emit only during
        ``[0, emission_window())`` regardless of the input; the step loop's
        window-phased policy (:mod:`repro.snn.plan`) uses this to skip encoder
        steps outside the window and to derive when each stage's input is
        exhausted.  ``None`` (the default, and the right answer for constant
        or free-running encoders) keeps the generic per-step path.
        """
        return None

    # ------------------------------------------------------------------ #
    # quiescence protocol (docs/DESIGN.md §9)
    # ------------------------------------------------------------------ #

    def row_quiescent(self, t: int) -> np.ndarray | None:
        """Per-sample exhaustion after step ``t``, or ``None`` if unknown.

        ``result[r]`` is True when sample ``r`` will emit nothing at any
        step ``> t``.  ``None`` (the default, and the right answer for
        stochastic or free-running encoders) disables quiescence early-exit
        and sample retirement for the run.
        """
        return None

    def quiescent(self, t: int) -> bool:
        """Whole-batch exhaustion after step ``t`` (see row_quiescent)."""
        rows = self.row_quiescent(t)
        return rows is not None and bool(rows.all())

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired samples: keep only rows where ``keep`` is True."""


class AnalogInputEncoder(InputEncoder):
    """Constant analog current: the image itself, every step.

    The standard input for rate-coded converted networks [Rueckauer 2017]
    (and for burst coding, following [10]): the first layer's neurons see the
    exact analog pre-activation each step, so no input spikes are counted.
    """

    counts_spikes = False
    constant = True

    def __init__(self):
        self._x: np.ndarray | None = None

    def reset(self, x: np.ndarray) -> None:
        self._x = x

    def step(self, t: int) -> np.ndarray | None:
        return self._x

    def compact(self, keep: np.ndarray) -> None:
        if self._x is not None:
            self._x = self._x[keep]


@dataclass
class BoundCoding:
    """A coding scheme instantiated for one network.

    Attributes
    ----------
    encoder:
        Input encoder.
    dynamics:
        One neuron-dynamics object per spiking stage, in depth order.
    readout:
        The classifier accumulator.
    total_steps:
        Steps to simulate.
    decision_time:
        Latency at which the decision is defined (== total_steps for every
        scheme in this library; kept separate for clarity in results).
    counts_input_spikes:
        Mirror of ``encoder.counts_spikes`` for the engine's bookkeeping.
    """

    encoder: InputEncoder
    dynamics: list
    readout: ReadoutAccumulator
    total_steps: int
    decision_time: int
    counts_input_spikes: bool


class CodingScheme:
    """Base class for coding schemes.

    Subclasses implement :meth:`bind`; ``name`` appears in experiment tables.
    """

    name = "abstract"

    #: True when binding produces stochastic components (random encoders);
    #: the parallel runner then gives every shard its own scheme instance
    #: (:meth:`shard_instance`) so workers don't replay identical noise.
    stochastic = False

    def bind(self, network: ConvertedNetwork, steps: int | None = None) -> BoundCoding:
        raise NotImplementedError

    def shard_instance(self, shard_index: int) -> "CodingScheme":
        """Scheme instance for one parallel shard.

        Deterministic schemes share ``self``; stochastic schemes override
        this to return a copy with an independent per-shard random stream
        (successive calls must yield distinct streams).
        """
        return self

    @staticmethod
    def _check_network(network: ConvertedNetwork) -> None:
        if not network.stages or network.stages[-1].spiking:
            raise ValueError("network must end in a non-spiking readout stage")
        if not any(stage.spiking for stage in network.stages):
            raise ValueError("network has no spiking stages")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
