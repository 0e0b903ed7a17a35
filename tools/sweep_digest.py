#!/usr/bin/env python3
"""Canonical digest of a sweep JSON (BENCH_sweeps.json / figures output).

The CI TSan soak runs the default figure sweep at --jobs 1 and --jobs 8 and
requires identical results.  The raw files can never be byte-identical —
the provenance header embeds `jobs` and `wall_seconds` — so this tool hashes
the *results*: everything under "points", with the provenance dropped, after
a JSON round-trip that normalizes formatting.  Two runs agree iff their
digests agree.

    python3 tools/sweep_digest.py figures/BENCH_sweeps.json [more.json ...]

BENCH_perf.json files (an obs::WriteWallTimersJson "phases" array) get a
different treatment: timings are machine-dependent, so their digest covers
only the sorted *set of phase names*.  That makes the digest a structural
fingerprint — a dropped or renamed bench phase changes it and fails CI,
while a faster machine does not.

Run journals are compared by tools/osumac_diff.py, not here.

Prints `<sha256>  <path>` per file (shasum-compatible layout).  With
--check A B, exits 1 and prints a diff summary if the two digests differ.
A file that is not one JSON document (a JSONL journal, a truncated file)
exits 2 naming it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def is_perf_doc(data) -> bool:
    """A wall-timer trajectory doc: a "phases" array of {name, ...} entries."""
    return isinstance(data, dict) and isinstance(data.get("phases"), list)


def load_doc(path: Path):
    """The file's one JSON document; exits 2 naming the file otherwise (a
    run journal is JSONL, one document per line, and is refused here)."""
    try:
        return json.loads(path.read_text())
    except OSError as e:
        print(f"{path}: {e.strerror}", file=sys.stderr)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"{path}: not one JSON document ({e})", file=sys.stderr)
    sys.exit(2)


def canonical_digest(path: Path) -> str:
    data = load_doc(path)
    if is_perf_doc(data):
        canonical = json.dumps(sorted(phase_names(path)), separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
    data.pop("provenance", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def point_names(path: Path) -> list[str]:
    data = load_doc(path)
    return [p.get("name", "?") for p in data.get("points", [])]


def phase_names(path: Path) -> list[str]:
    data = load_doc(path)
    return [p.get("name", "?") for p in data.get("phases", [])
            if isinstance(p, dict)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--check", action="store_true",
                        help="require exactly two files and equal digests")
    args = parser.parse_args(argv)

    digests = {f: canonical_digest(f) for f in args.files}
    for f, d in digests.items():
        print(f"{d}  {f}")

    if args.check:
        if len(args.files) != 2:
            print("--check requires exactly two files", file=sys.stderr)
            return 2
        a, b = args.files
        if digests[a] != digests[b]:
            if is_perf_doc(load_doc(a)):
                set_a, set_b = set(phase_names(a)), set(phase_names(b))
                print(f"\nbench phase sets differ: {a} vs {b}",
                      file=sys.stderr)
                for label, names in [("only in A", set_a - set_b),
                                     ("only in B", set_b - set_a)]:
                    if names:
                        print(f"  {label}: {', '.join(sorted(names))}",
                              file=sys.stderr)
                return 1
            names_a, names_b = point_names(a), point_names(b)
            print(f"\nsweep digests differ: {a} vs {b}", file=sys.stderr)
            if names_a != names_b:
                print(f"  point lists differ: {len(names_a)} vs "
                      f"{len(names_b)} points", file=sys.stderr)
            else:
                print("  same point list; at least one metric/counter "
                      "value diverged (nondeterministic sweep?)",
                      file=sys.stderr)
            return 1
        print("sweep digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
