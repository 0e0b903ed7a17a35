"""Every RNG in src/ must trace back to a named exp::seed stream: no
Rng/SplitMix64Rng constructed from an integer literal and no raw SplitMix64()
call on a literal outside src/exp/ (where DeriveSeed and the stream registry
live), and no standard-library engines (std::mt19937*, std::random_device,
std::default_random_engine) outside common/rng.h.  A literal seed is an
anonymous stream: it silently decouples a consumer from the scenario seed,
so two runs with different `--seed` values share "random" draws and the
cross-seed confidence intervals in the figures lie.  Additive per-index
seed arithmetic (`seed + i * constant` or `seed + constant * i`, the
constant a numeric literal) is banned for the same family of reasons:
distinct (seed, index) pairs collide -- seed 7 index 2 and seed 7 + 2*c
index 0 are the same stream -- so sibling consumers must derive
sub-streams through DeriveSubstreamSeed (common/rng.h) or exp::DeriveSeed,
which mix the root seed before offsetting.  Tests and benches may use
literal seeds freely (they pin exact draw sequences on purpose)."""
from __future__ import annotations

import re

from ..engine import Context, Rule

# An Rng/SplitMix64Rng object whose seed expression starts with an integer
# literal: declarations (`Rng r(5)`, `Rng r{5}`), temporaries (`Rng(5)`),
# and member-initializers (`rng_(7)` is not matched -- the member's type is
# unknown -- but `rng_(Rng(7))` and `rng_{SplitMix64Rng{7}}` are).
LITERAL_SEED_CTOR = re.compile(
    r"\b(?:SplitMix64Rng|Rng)\b(?:\s+[A-Za-z_]\w*)?\s*[({]\s*\d")
# A raw SplitMix64() mix of a literal: an ad-hoc stream derivation that
# bypasses exp::DeriveSeed's gamma spacing.
LITERAL_SPLITMIX_CALL = re.compile(r"\bSplitMix64\s*\(\s*\d")
# Additive sibling-stream derivation: an expression that offsets a seed by
# an index scaled by a numeric literal on either side of the `*`
# (`seed + i * 0x9E3779B9u`, `config.seed + cell * 12345`,
# `seed + 0x517CC1B7ull * i`).  The offset aliases across (seed, index)
# pairs; DeriveSubstreamSeed mixes the root first so siblings can never
# collide.
_NUMBER = r"(?:0[xX][0-9A-Fa-f]+|\d+)"
ADDITIVE_SEED = re.compile(
    r"\b(?:[A-Za-z_]\w*\.)?seed_?\s*\+[^;,]*"
    r"(?:\*\s*" + _NUMBER + r"|\b" + _NUMBER + r"[uUlL]*\s*\*)")
STD_ENGINE = re.compile(
    r"\bstd::(?:mt19937(?:_64)?|random_device|default_random_engine|"
    r"minstd_rand0?|ranlux\d+(?:_base)?|knuth_b)\b")

EXEMPT_PREFIXES = ("src/exp/", "src/common/rng.h")
ENGINE_HOME = "src/common/rng.h"


def check(ctx: Context) -> None:
    for source in ctx.files("src"):
        exempt = any(source.rel.startswith(p) for p in EXEMPT_PREFIXES)
        for lineno, code, _raw in source.lines():
            if not exempt:
                if LITERAL_SEED_CTOR.search(code):
                    ctx.finding(source, lineno,
                                "RNG seeded from an integer literal; derive "
                                "the seed from a named stream "
                                "(exp::DeriveSeed / Rng::Fork) so every draw "
                                "follows the scenario seed")
                elif LITERAL_SPLITMIX_CALL.search(code):
                    ctx.finding(source, lineno,
                                "SplitMix64() mixed from a literal; stream "
                                "derivation belongs to exp::DeriveSeed so "
                                "gamma spacing stays collision-free")
                elif ADDITIVE_SEED.search(code):
                    ctx.finding(source, lineno,
                                "additive seed arithmetic (`seed + index * "
                                "constant`) aliases across (seed, index) "
                                "pairs; derive sibling streams with "
                                "DeriveSubstreamSeed (common/rng.h) or "
                                "exp::DeriveSeed")
            if source.rel != ENGINE_HOME and STD_ENGINE.search(code):
                ctx.finding(source, lineno,
                            "standard-library RNG engine outside "
                            "common/rng.h; use common::Rng so seeding and "
                            "forking stay observable")


RULE = Rule(
    name="rng-stream-discipline",
    summary="RNG seeds derive from named exp::seed streams, never literals",
    help=__doc__,
    check=check,
)
