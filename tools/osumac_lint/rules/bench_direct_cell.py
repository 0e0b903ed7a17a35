"""No direct mac::Cell / mac::Network construction in bench/: benches build
populations through the scenario engine (exp::ScenarioSpec + SweepRunner /
ScenarioRun, or exp::NetworkScenarioSpec + NetworkScenarioRun for
multi-cell and multi-carrier runs) so every benchmark point is declarative,
seed-derived and sweep-parallel.  There is no exemption: every simulation
bench goes through the scenario engine."""
from __future__ import annotations

import re

from ..engine import Context, Rule

# A Cell/Network object built directly: stack declaration, make_unique, or
# new-expression.  \b keeps CellConfig/NetworkScenarioRun out of scope.
DIRECT_CELL = re.compile(
    r"(?:^|[^\w:])(?:mac::)?\b(Cell|Network)\s+[A-Za-z_]\w*\s*[({]"
    r"|make_unique<\s*(?:mac::)?(Cell|Network)\s*>"
    r"|new\s+(?:mac::)?(Cell|Network)\s*[({]")


def check(ctx: Context) -> None:
    for source in ctx.files("bench"):
        for lineno, code, _raw in source.lines():
            if DIRECT_CELL.search(code):
                ctx.finding(source, lineno,
                            "benches must drive Cell/Network through the "
                            "scenario engine (exp::ScenarioSpec + "
                            "SweepRunner/ScenarioRun), not construct them "
                            "directly")


RULE = Rule(
    name="bench-direct-cell",
    summary="benches go through the scenario engine, not raw Cell/Network",
    help=__doc__,
    check=check,
)
