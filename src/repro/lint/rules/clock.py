"""RPL002 — no raw wall-clock reads outside the designated seams.

Deterministic tests (the breaker's trip/recover cycles, budget expiry,
deadline culling) depend on every time source being injectable.  The
codebase concentrates its raw ``time.monotonic``/``time.perf_counter``/
``time.time`` reads in four *clock seams* — the budget timer, the
breaker's default clock, the batcher and the service — and everything
else receives a clock.  This
rule fails any new raw read (call *or* reference, including
``from time import monotonic``) outside those seams.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.model import FileContext, Finding
from repro.lint.registry import register_rule

__all__ = ["WallClockRule", "CLOCK_SEAMS"]

#: Files (posix path suffixes) allowed to read the wall clock directly.
CLOCK_SEAMS = (
    "repro/snn/budget.py",
    "repro/reliability/breaker.py",
    "repro/serve/batcher.py",
    "repro/serve/service.py",
)

_WALLCLOCK_NAMES = frozenset({"time", "monotonic", "perf_counter"})


@register_rule
class WallClockRule:
    id = "RPL002"
    name = "no-raw-wallclock"
    description = (
        "time.time/monotonic/perf_counter only in the designated clock "
        "seams; elsewhere thread the injectable clock through"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_src or ctx.path_endswith(*CLOCK_SEAMS):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr in _WALLCLOCK_NAMES
            ):
                name = f"time.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                clocks = [a.name for a in node.names if a.name in _WALLCLOCK_NAMES]
                if not clocks:
                    continue
                name = ", ".join(f"time.{c}" for c in clocks)
            else:
                continue
            yield Finding(
                rule=self.id,
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"raw wall-clock read ({name}) outside the designated "
                    "clock seams; accept an injectable clock instead "
                    "(cf. Budget.start(clock=...), CircuitBreaker(clock=...))"
                ),
            )
