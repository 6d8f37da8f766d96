"""A dense per-step oracle for every TTFS schedule and step budget.

The simulation below is written straight from the fire-once rule of
Sec. III-A (Eqs. 4–8) over the pipeline schedule of Fig. 3.  It uses
none of the engine's firing machinery (no ``_FireOnce``, ``_SpikeTimes``,
drains, packets or step loop).  At each step ``t``:

* the encoder fires every unfired pixel with ``x >= max(W0[t], floor)``;
* each stage integrates the spikes arriving at ``t`` and adds its bias
  once, at ``integration_start``;
* within its fire window, each stage fires every unfired unit with
  ``u >= max(W[t - fire_start], floor)``, with weight ``W[dt]``, and
  passes the spikes on in the same step;
* the readout adds its drive, and adds its bias once at the last stage's
  ``fire_start``.

``floor`` is a table's last entry, and never zero.  Stopping after ``k``
steps and landing a still-pending readout bias gives
``Budget(max_steps=k)``.

A stage compares its membrane only in its fire window, so its input can
be integrated in two ways.  *Per step*, each step's spikes go through
the stage's dense ops at once.  *Lazily*, the input is summed until the
stage next compares, then pushed through the engine's kernel rule
(``test_layered._linear``).  The sum is exact, because a fire-once
source never spikes twice at one position.  The lazy form sums in the
engine's order, so the reference engine (``early_exit=False``) and the
compiled plan must equal it bit for bit.  The per-step form reorders the
sums, so scores agree within ``SCORE_TOLERANCE``.  Spike counts and
predictions are exact either way.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.ttfs import TTFSCoding
from repro.core.kernels import ExpKernel, KernelParams, tabulate_kernel
from repro.snn.budget import Budget
from repro.snn.engine import Simulator
from tests.snn.test_layered import _linear, _network

#: Largest |Δscore| allowed for per-step integration, which sums in
#: another order than the engine.  The largest difference seen over the
#: property's examples was below 1e-15.
SCORE_TOLERANCE = 1e-12

_SMALLEST_POSITIVE = np.nextafter(0.0, 1.0)


def _tables(network, coding: TTFSCoding) -> list[np.ndarray]:
    """Each source's threshold table ``theta0 * kernel(dt)``, input first."""
    tables = []
    for params in coding.resolved_params(network):
        kernel = ExpKernel(params)
        if coding.use_lut:
            kernel = kernel.to_lut(coding.window)
        tables.append(tabulate_kernel(kernel, coding.window, coding.theta0, network.dtype))
    return tables


def _fire(potential, fired, table, dt):
    """The spikes of offset ``dt`` into a fire window, latched fired."""
    threshold = max(table[dt], table[-1], _SMALLEST_POSITIVE)
    spikes = ~fired & (potential >= threshold)
    fired |= spikes
    return np.where(spikes, table[dt], 0.0).astype(table.dtype), int(spikes.sum())


def step_oracle(network, coding, x, threshold, max_steps=None, lazy=True):
    """Scores and per-sample spike counts of a run stopped after
    ``max_steps`` steps (the whole schedule when ``None``)."""
    n = len(x)
    schedule = coding.schedule(network)
    steps = schedule.total_steps
    if max_steps is not None:
        steps = min(steps, max_steps)
    tables = _tables(network, coding)
    spiking = [s for s in network.stages if s.spiking]
    readout = network.stages[-1]
    receivers = [*spiking, readout]
    u = [np.zeros((n, *s.out_shape), x.dtype) for s in spiking]
    fired = [np.zeros(p.shape, bool) for p in (x, *u)]
    # Input each receiver has not integrated yet (lazy form only).
    pending = [None] * len(receivers)
    score = np.zeros((n, *readout.out_shape), x.dtype)
    counts = [0] * len(fired)

    def receive(j, spikes, into):
        if not lazy:
            into += receivers[j].apply(spikes)
        elif pending[j] is None:
            pending[j] = spikes
        else:
            pending[j] = pending[j] + spikes

    def integrate(j, into):
        if pending[j] is not None:
            into += _linear(receivers[j], pending[j], threshold)
            pending[j] = None

    for t in range(steps):
        spikes = None
        if t < coding.window:
            spikes, count = _fire(x, fired[0], tables[0], t)
            counts[0] += count
        for i, window in enumerate(schedule.windows):
            if spikes is not None:
                receive(i, spikes, u[i])
            if t == window.integration_start:
                u[i] += spiking[i].bias_broadcast(n)
            spikes = None
            if window.in_fire_phase(t):
                integrate(i, u[i])
                spikes, count = _fire(u[i], fired[i + 1], tables[i + 1], t - window.fire_start)
                counts[i + 1] += count
        if spikes is not None:
            receive(len(spiking), spikes, score)
        if t == schedule.windows[-1].fire_start:
            score += readout.bias_broadcast(n)
    integrate(len(spiking), score)
    if steps <= schedule.windows[-1].fire_start:
        score += readout.bias_broadcast(n)  # the still-pending bias lands
    names = ["input", *(s.name for s in spiking)]
    return score, {name: c / n for name, c in zip(names, counts)}


@dataclass(frozen=True)
class StepCase:
    seed: int
    window: int
    fire_offset: int | None
    kernel: str
    params: tuple[tuple[float, float], ...]
    batch: int
    density_threshold: float
    stage_bias: bool
    readout_bias: bool
    max_steps: int | None


@st.composite
def step_cases(draw):
    window = draw(st.integers(2, 20))
    early = draw(st.booleans())
    return StepCase(
        seed=draw(st.integers(0, 2**16)),
        window=window,
        fire_offset=draw(st.integers(1, window)) if early else None,
        kernel=draw(st.sampled_from(["exp", "lut", "random"])),
        # tau and t_delay of the three sources (input, two stages).  The
        # tables stay positive, so no spike weighs zero; tau = 1e30 ties
        # every entry, which no truncation can cut back.
        params=tuple(
            (
                draw(st.one_of(st.floats(0.2, 3.0 * window), st.just(1e30))),
                draw(st.floats(-2.0, 2.0)),
            )
            for _ in range(3)
        ),
        batch=draw(st.integers(1, 4)),
        density_threshold=draw(
            st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
        ),
        stage_bias=draw(st.booleans()),
        readout_bias=draw(st.booleans()),
        max_steps=draw(st.one_of(st.none(), st.integers(1, 3 * window + 2))),
    )


def _coding(case: StepCase) -> TTFSCoding:
    params = None
    if case.kernel == "random":
        params = [KernelParams(tau=tau, t_delay=delay) for tau, delay in case.params]
    return TTFSCoding(
        window=case.window,
        kernel_params=params,
        early_firing=case.fire_offset is not None,
        fire_offset=case.fire_offset,
        use_lut=case.kernel == "lut",
    )


class TestPerStepOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=step_cases())
    def test_engine_and_plan_equal_the_per_step_oracle(self, case):
        network, rng = _network(case.seed, case.stage_bias, case.readout_bias)
        x = rng.random((case.batch, 1, 8, 8))
        budget = None if case.max_steps is None else Budget(max_steps=case.max_steps)
        threshold = case.density_threshold
        ref = Simulator(
            network, _coding(case), density_threshold=threshold, early_exit=False
        ).run(x, budget=budget)
        got = (
            Simulator(network, _coding(case), density_threshold=threshold)
            .compile(batch_size=case.batch)
            .run(x, budget=budget)
        )
        coding = _coding(case)
        exact, counts = step_oracle(network, coding, x, threshold, case.max_steps)
        stepped, stepped_counts = step_oracle(
            network, coding, x, threshold, case.max_steps, lazy=False
        )
        assert stepped_counts == counts
        np.testing.assert_allclose(stepped, exact, rtol=0, atol=SCORE_TOLERANCE)
        np.testing.assert_array_equal(stepped.argmax(axis=1), exact.argmax(axis=1))
        for result in (ref, got):
            np.testing.assert_array_equal(result.scores, exact)
            np.testing.assert_array_equal(result.predictions, exact.argmax(axis=1))
            assert result.spike_counts == counts
