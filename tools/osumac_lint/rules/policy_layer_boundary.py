"""The MAC-policy layer boundary: policy tenants (src/mac/policies/) plan
cycles purely over the views and plan structs of mac/mac_policy.h — they
must not include the channel substrate (phy/), the simulator (sim/), the
scenario engine (exp/) or the standalone baseline harnesses (baselines/).
A policy that reaches below the seam can perturb the substrate's RNG
streams or channel state and silently break the byte-identical guarantee
the PolicyCell driver provides for head-to-head MAC comparisons.

Conversely the substrate layer and both cell drivers (mac/substrate.*,
mac/mac_policy.h, mac/policy_cell.*, and the OSU driver mac/cell.*, which
drives the BaseStation directly) must not include concrete tenants
(mac/policies/); the single documented exemption is the factory in
mac/mac_policy.cc, where name -> tenant resolution has to live so no other
substrate file ever names a policy."""
from __future__ import annotations

import re

from ..engine import Context, Rule

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

#: Layers a policy tenant must never reach into.
POLICY_FORBIDDEN = ("phy/", "sim/", "exp/", "baselines/")
POLICY_ROOT = "src/mac/policies/"

#: The substrate-layer seam files and the two cell drivers; none may know a
#: concrete tenant.  The factory (src/mac/mac_policy.cc) is deliberately
#: absent: it is the one place name -> tenant resolution lives.
SUBSTRATE_FILES = ("src/mac/substrate.h", "src/mac/substrate.cc",
                   "src/mac/mac_policy.h", "src/mac/policy_cell.h",
                   "src/mac/policy_cell.cc", "src/mac/cell.h",
                   "src/mac/cell.cc")


def check(ctx: Context) -> None:
    for source in ctx.files("src/mac"):
        in_policies = source.rel.startswith(POLICY_ROOT)
        in_substrate = source.rel in SUBSTRATE_FILES
        if not in_policies and not in_substrate:
            continue
        # Match the raw line: the scanner blanks string literals in the
        # stripped view, which would erase every quoted include path.
        for lineno, _code, raw in source.lines():
            m = INCLUDE_RE.match(raw)
            if m is None:
                continue
            header = m.group(1)
            if in_policies:
                for prefix in POLICY_FORBIDDEN:
                    if header.startswith(prefix):
                        ctx.finding(source, lineno,
                                    f"policy tenant includes \"{header}\": "
                                    "policies plan over the mac_policy.h "
                                    "views only and never reach the "
                                    f"{prefix.rstrip('/')} layer")
            elif header.startswith("mac/policies/"):
                ctx.finding(source, lineno,
                            f"substrate layer includes concrete tenant "
                            f"\"{header}\"; only the factory "
                            "(mac/mac_policy.cc) may name policies")


RULE = Rule(
    name="policy-layer-boundary",
    summary="policies never include phy/sim/exp/baselines; the substrate "
            "never includes concrete policies",
    help=__doc__,
    check=check,
)
