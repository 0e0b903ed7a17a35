"""No printf/std::cout/std::cerr/puts in src/: library code reports through
return values, the metrics registry, the event trace, or ostream& parameters
the caller supplies.  Exempt: src/obs/ (the sinks ARE the output path) and
src/common/logging.cc (the logging backend).  Tools, benches and tests
print freely."""
from __future__ import annotations

import re

from ..engine import Context, Rule

RAW_STDOUT = re.compile(
    r"(?<![\w_.:])(?:std::)?(?:f?printf|puts|putchar)\s*\(|std::c(?:out|err)\b")
EXEMPT = ("src/obs/", "src/common/logging.cc")


def check(ctx: Context) -> None:
    for source in ctx.files("src"):
        if any(source.rel.startswith(e) for e in EXEMPT):
            continue
        for lineno, code, _raw in source.lines():
            if RAW_STDOUT.search(code):
                ctx.finding(source, lineno,
                            "direct stdout/stderr output in library code; "
                            "report through the obs sinks, the metrics "
                            "registry, or an ostream& the caller supplies")


RULE = Rule(
    name="raw-stdout",
    summary="no direct stdout/stderr output in library code",
    help=__doc__,
    check=check,
)
