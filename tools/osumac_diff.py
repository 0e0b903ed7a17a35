#!/usr/bin/env python3
"""Cross-run divergence diagnosis for osumac run journals.

A run journal (osumac_sim --journal, or make_figures' RUN_journal.jsonl) is
a per-cycle digest chain over each cell's MAC-visible state: slot grids,
reservation queues, counters, SLO buckets and the event-trace fingerprint,
with per-component hashes so a diff can name not just the first cycle where
two runs part ways but which component moved first.

    python3 tools/osumac_diff.py A.jsonl B.jsonl
    python3 tools/osumac_diff.py A.jsonl B.jsonl --expect-divergence-at 102
    python3 tools/osumac_diff.py A.jsonl B.jsonl --flight flight_dump/

Exit codes: 0 = journals agree (or the expected divergence was found),
1 = unexpected divergence (or an expected one was missing / elsewhere),
2 = usage or malformed input.

Because each record's `chain` folds the whole history before it, the first
divergent cycle is found by bisection on the chain column; the component
hashes at that record then name the culprit.  With --flight DIR the report
cross-references a FlightRecorder dump (MANIFEST trip reason, events and
packet-lifecycle spans near the divergent cycle) so the culprit report
reads as a story, not a hash pair.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

COMPONENTS = ["slot_grid", "queues", "counters", "slo", "events"]


def fail(msg: str) -> None:
    print(f"osumac_diff: {msg}", file=sys.stderr)
    sys.exit(2)


def load_journal(path: Path) -> dict:
    """Parses a journal JSONL into {header, cells: {id: [records]}}."""
    header: dict = {}
    cells: dict[int, list[dict]] = {}
    dropped: dict[int, int] = {}
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        fail(f"{path}: {e}")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{lineno}: {e}")
        if "cell" not in obj:
            if obj.get("schema", "").startswith("osumac-journal"):
                header = obj
            continue
        cell = obj["cell"]
        if "dropped" in obj and "cycle" not in obj:
            dropped[cell] = obj["dropped"]
            continue
        for key in ["cycle", "chain"] + COMPONENTS:
            if key not in obj:
                fail(f"{path}:{lineno}: record missing '{key}'")
        cells.setdefault(cell, []).append(obj)
    if not header and not cells:
        fail(f"{path}: not a journal (no header, no records)")
    return {"header": header, "cells": cells, "dropped": dropped}


def first_chain_mismatch(a: list[dict], b: list[dict]) -> int | None:
    """Index of the first record whose chain differs, by bisection.

    The chain at index i folds every record up to i, so chain equality at i
    implies the whole prefix matched: the mismatch indices form a suffix,
    and the boundary can be bisected.  Returns None if the common prefix
    (min length) agrees everywhere.
    """
    n = min(len(a), len(b))
    if n == 0 or a[n - 1]["chain"] == b[n - 1]["chain"]:
        return None
    lo, hi = 0, n - 1  # invariant: chain differs at hi, agrees below lo
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid]["chain"] == b[mid]["chain"]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def divergent_components(ra: dict, rb: dict) -> list[str]:
    if ra["cycle"] != rb["cycle"]:
        return ["cycle"]
    moved = [c for c in COMPONENTS if ra[c] != rb[c]]
    return moved if moved else ["chain"]


def find_divergence(ja: dict, jb: dict) -> dict | None:
    """First divergent (cycle, cell) across both journals.

    Per cell, the first chain mismatch is bisected; across cells the
    earliest cycle wins (ties: lowest cell id).  A cell present on one side
    only, or a journal running short, is a length divergence at the first
    uncovered cycle.
    """
    best: dict | None = None

    def consider(candidate: dict) -> None:
        nonlocal best
        if best is None or (candidate["cycle"], candidate["cell"]) < (
                best["cycle"], best["cell"]):
            best = candidate

    for cell in sorted(set(ja["cells"]) | set(jb["cells"])):
        a = ja["cells"].get(cell)
        b = jb["cells"].get(cell)
        if a is None or b is None:
            present = a if a is not None else b
            consider({"cell": cell, "cycle": present[0]["cycle"],
                      "kind": "missing-cell",
                      "side": "b" if a is not None else "a"})
            continue
        idx = first_chain_mismatch(a, b)
        if idx is not None:
            consider({"cell": cell, "cycle": a[idx]["cycle"], "kind": "record",
                      "index": idx, "a": a[idx], "b": b[idx],
                      "components": divergent_components(a[idx], b[idx])})
        elif len(a) != len(b):
            longer = a if len(a) > len(b) else b
            consider({"cell": cell, "cycle": longer[min(len(a), len(b))]["cycle"],
                      "kind": "length", "len_a": len(a), "len_b": len(b)})
    return best


def print_context(a: list[dict], b: list[dict], idx: int, context: int) -> None:
    lo = max(0, idx - context)
    hi = min(min(len(a), len(b)), idx + context + 1)
    header = f"  {'cycle':>8}  " + "  ".join(f"{c:<10}" for c in COMPONENTS + ["chain"])
    print(header)
    for i in range(lo, hi):
        marks = []
        for c in COMPONENTS + ["chain"]:
            same = a[i][c] == b[i][c]
            marks.append((a[i][c][:8] + "  ") if same else
                         (a[i][c][:4] + "!" + b[i][c][:4]))
        tag = " <- first divergence" if i == idx else ""
        print(f"  {a[i]['cycle']:>8}  " + "  ".join(f"{m:<10}" for m in marks) + tag)
    print("  (matching component cells show run A's hash prefix; diverging"
          " ones show A!B prefixes)")


def cross_reference_flight(flight_dir: Path, cycle: int) -> None:
    """Prints the FlightRecorder dump's story around the divergent cycle."""
    manifest = flight_dir / "MANIFEST.txt"
    if not manifest.is_file():
        print(f"  flight: no MANIFEST.txt in {flight_dir}")
        return
    reason, trip_cycle = "?", None
    for line in manifest.read_text().splitlines():
        if line.startswith("reason: "):
            reason = line[len("reason: "):].strip()
        elif line.startswith("cycle: "):
            try:
                trip_cycle = int(line[len("cycle: "):].strip())
            except ValueError:
                fail(f"{manifest}: malformed cycle line: {line.strip()!r}")
    print(f"  flight dump: {flight_dir}")
    print(f"    trip: {reason} (cycle {trip_cycle})")
    if trip_cycle is not None and trip_cycle != cycle:
        print(f"    note: trip cycle {trip_cycle} != diffed divergence "
              f"cycle {cycle}")
    events_path = flight_dir / "events.jsonl"
    if not events_path.is_file():
        return
    window, lifecycles = [], set()
    for lineno, line in enumerate(events_path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{events_path}:{lineno}: {e}")
        if abs(ev.get("cycle", -10**9) - cycle) <= 1:
            window.append(ev)
            if ev.get("kind") == "lifecycle":
                lifecycles.add(ev.get("a1"))
    print(f"    events within 1 cycle of divergence: {len(window)} "
          f"({len(lifecycles)} packet lifecycles touched)")
    for ev in window[:12]:
        desc = f"      c={ev.get('cycle')} t={ev.get('tick')} {ev.get('kind')}"
        if ev.get("channel"):
            desc += f" ch={ev['channel']}"
        if ev.get("node", -1) >= 0:
            desc += f" node={ev['node']}"
        if ev.get("slot", -1) >= 0:
            desc += f" slot={ev['slot']}"
        print(desc)
    if len(window) > 12:
        print(f"      ... and {len(window) - 12} more (see {events_path})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journal_a", type=Path)
    parser.add_argument("journal_b", type=Path)
    parser.add_argument("--expect-divergence-at", type=int, default=None,
                        metavar="CYCLE",
                        help="require the first divergent cycle to be CYCLE "
                             "(exit 1 if the journals agree or diverge "
                             "elsewhere); for fault-injection harnesses")
    parser.add_argument("--expect-cell", type=int, default=None, metavar="CELL",
                        help="with --expect-divergence-at: also require the "
                             "divergent cell id")
    parser.add_argument("--flight", type=Path, default=None, metavar="DIR",
                        help="cross-reference a FlightRecorder dump: print "
                             "the trip reason and the event/lifecycle window "
                             "around the divergent cycle")
    parser.add_argument("--context", type=int, default=3,
                        help="context records around the divergence (default 3)")
    args = parser.parse_args(argv)

    ja = load_journal(args.journal_a)
    jb = load_journal(args.journal_b)

    sa = ja["header"].get("schema")
    sb = jb["header"].get("schema")
    if sa != sb:
        fail(f"journal schemas differ: {args.journal_a} is {sa}, "
             f"{args.journal_b} is {sb}; digests of different schemas "
             f"cannot be compared")
    ea = ja["header"].get("every", 1)
    eb = jb["header"].get("every", 1)
    if ea != eb:
        fail(f"journals sampled at different cadence: every={ea} vs every={eb}")
    for j, name in [(ja, args.journal_a), (jb, args.journal_b)]:
        if j["dropped"]:
            total = sum(j["dropped"].values())
            print(f"osumac_diff: note: {name} dropped {total} records past "
                  f"the retention bound; the diff covers retained records")

    div = find_divergence(ja, jb)
    sig_a = ja["header"].get("signature")
    sig_b = jb["header"].get("signature")

    if div is None:
        records = sum(len(r) for r in ja["cells"].values())
        if args.expect_divergence_at is not None:
            print(f"osumac_diff: FAIL: expected divergence at cycle "
                  f"{args.expect_divergence_at}, but the journals agree "
                  f"({records} records, {len(ja['cells'])} cell(s))")
            return 1
        suffix = "" if sig_a == sig_b else (
            f" (header signatures differ: {sig_a} vs {sig_b} — "
            f"records past the retention bound must have diverged)")
        print(f"osumac_diff: OK: journals agree ({records} records, "
              f"{len(ja['cells'])} cell(s), signature {sig_a}){suffix}")
        return 0 if sig_a == sig_b else 1

    print(f"osumac_diff: journals diverge: {args.journal_a} vs {args.journal_b}")
    if div["kind"] == "missing-cell":
        print(f"  cell {div['cell']} is journaled only in run "
              f"{'A' if div['side'] == 'a' else 'B'} (from cycle {div['cycle']})")
    elif div["kind"] == "length":
        print(f"  cell {div['cell']}: record counts differ "
              f"({div['len_a']} vs {div['len_b']}); first uncovered cycle "
              f"{div['cycle']}")
    else:
        comps = ", ".join(div["components"])
        print(f"  first divergence: cycle {div['cycle']}, cell {div['cell']}, "
              f"component(s): {comps}")
        a = ja["cells"][div["cell"]]
        b = jb["cells"][div["cell"]]
        if div["index"] > 0:
            print(f"  last matching cycle: {a[div['index'] - 1]['cycle']}")
        print_context(a, b, div["index"], args.context)
    if args.flight is not None:
        cross_reference_flight(args.flight, div["cycle"])

    if args.expect_divergence_at is not None:
        ok = div["cycle"] == args.expect_divergence_at and (
            args.expect_cell is None or div["cell"] == args.expect_cell)
        if ok:
            where = f"cycle {div['cycle']}"
            if args.expect_cell is not None:
                where += f", cell {div['cell']}"
            print(f"osumac_diff: OK: divergence localized to the expected "
                  f"{where}")
            return 0
        expected = f"cycle {args.expect_divergence_at}"
        if args.expect_cell is not None:
            expected += f", cell {args.expect_cell}"
        print(f"osumac_diff: FAIL: expected first divergence at {expected}, "
              f"found cycle {div['cycle']}, cell {div['cell']}")
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
