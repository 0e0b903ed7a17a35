"""No std::vector construction in the per-slot hot paths
(src/fec/reed_solomon.cc, src/phy/channel.cc, src/phy/error_model.cc), in
the bit codec and control-field parse path (src/common/bitio.cc,
src/mac/control_fields.cc) or in the cell's slot path (src/mac/packet.cc's
serializers, src/mac/substrate.cc's burst transmit, src/mac/round_robin.cc's
slot allocation): the sweep fast path works on caller-provided scratch
(ChannelScratch, *Into APIs, inline InfoBlocks, recycled burst storage,
buffers viewed through spans) so no slot allocates.  Setup-time code
(constructors, the allocating convenience wrappers) carries a
`lint: allow-hot-alloc` waiver comment."""
from __future__ import annotations

import re

from ..engine import Context, Rule

HOT_ALLOC_FILES = ("src/fec/reed_solomon.cc", "src/phy/channel.cc",
                   "src/phy/error_model.cc", "src/common/bitio.cc",
                   "src/mac/control_fields.cc", "src/mac/packet.cc",
                   "src/mac/substrate.cc", "src/mac/round_robin.cc")
HOT_ALLOC = re.compile(r"\bstd::vector\s*<")


def constructs_vector(line: str) -> bool:
    """True if the line constructs a std::vector object (a declaration or a
    temporary) rather than naming the type as a reference, pointer, or the
    return type of an out-of-line qualified function definition."""
    for m in HOT_ALLOC.finditer(line):
        depth = 1
        i = m.end()
        while i < len(line) and depth > 0:
            if line[i] == "<":
                depth += 1
            elif line[i] == ">":
                depth -= 1
            i += 1
        if depth > 0:
            return True  # type spans lines; assume the worst
        rest = line[i:].lstrip()
        if rest[:1] in ("&", "*"):
            continue  # reference/pointer parameter: no allocation
        if rest[:1] in (">", ","):
            continue  # nested inside an enclosing template argument list
        name = re.match(r"[A-Za-z_]\w*", rest)
        if name and rest[name.end():].startswith("::"):
            continue  # qualified return type of a function definition
        return True
    return False


def check(ctx: Context) -> None:
    for rel in HOT_ALLOC_FILES:
        source = ctx.file(rel)
        if source is None:
            continue
        for lineno, code, _raw in source.lines():
            if constructs_vector(code):
                ctx.finding(source, lineno,
                            "std::vector constructed in a codec hot path; "
                            "use the caller-provided scratch (ChannelScratch "
                            "/ *Into APIs) or add a `lint: allow-hot-alloc` "
                            "waiver for setup-time code")


RULE = Rule(
    name="hot-alloc",
    summary="no std::vector construction in the phy/fec/codec per-slot hot paths",
    help=__doc__,
    check=check,
)
