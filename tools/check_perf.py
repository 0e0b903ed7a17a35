#!/usr/bin/env python3
"""Validate a BENCH_perf.json wall-clock trajectory file and gate perf
regressions.

Usage: check_perf.py [BENCH_perf.json] [options]

Options:
  --allow-dirty        accept provenance from a dirty working tree (local
                       iteration only; CI and committed artifacts must be
                       clean)
  --require-hotpaths   also require the bench_hotpaths phases and their
                       relative-speed invariants, plus the bench_mac_matrix
                       phase from make_figures --mac-matrix (the Release CI
                       job sets this after merging bench output into the
                       file)
  --max-phase NAME=S   fail if phase NAME's total_seconds exceeds S
                       (repeatable; absolute budgets for a known machine)

Checks, in order:
  1. Schema written by obs::WriteWallTimersJson: a provenance header
     string and a "phases" array where every entry has name/count/
     total_seconds/mean_seconds/max_seconds, counts are integers >= 1,
     numbers are internally consistent (mean*count == total, max <= total).
  2. Provenance hygiene: a `-dirty` git describe means the artifact was
     generated from an uncommitted tree and is rejected (this caught
     BENCH_perf.json being committed with version=84fe8eb-dirty).
  3. The make_figures phases exist, the sweep recorded real wall time, and
     the journaled sweep (sweep_journaled) stays within 1.10x of the
     journal-off sweep — the run journal's zero-cost-when-disabled /
     cheap-when-enabled guarantee.  The bench_metro_serial/bench_metro_t8
     pair gates the sharded Network's speedup, tiered by the `cores=`
     recorded in the provenance (>=3x on an 8-core host, >=1.8x on 4+,
     overhead-only on fewer — a 1-core host cannot demonstrate speedup).
  4. With --require-hotpaths, relative invariants that hold on any
     machine, so CI never depends on absolute host speed:
       - clean RS decode (the re-encode clean check) beats the full
         Berlekamp-Massey pipeline by at least 1.5x
       - an untraced cycle step costs no more than 1.10x a traced one
         (zero-cost disabled observability, with 10% timer noise head)
       - a cycle step with a live obs::Profiler installed costs no more
         than 1.35x the untraced one (self-profiling stays cheap; the
         zones cost ~10-20% in practice, and a per-event-retention
         regression would be a multiple, not a percentage).

CI runs this as the perf-smoke step against the committed repo-root
BENCH_perf.json so the perf trajectory never silently rots.
"""
import json
import sys

REQUIRED_PHASES = ("spec_build", "sweep", "sweep_journaled", "bench_network",
                   "bench_metro_serial", "bench_metro_t8",
                   "write_csv", "write_sweeps_json")
HOTPATH_PHASES = ("hotpath_rs_encode", "hotpath_rs_decode_clean",
                  "hotpath_rs_decode_corrupt", "hotpath_channel_uniform",
                  "hotpath_cycle_untraced", "hotpath_cycle_traced",
                  "hotpath_cycle_profiled")
# The head-to-head MAC comparison sweep; present only when the artifact was
# generated with make_figures --mac-matrix, which the Release CI job (and
# the committed repo-root artifact) must be.
MAC_MATRIX_PHASES = ("bench_mac_matrix",)
REQUIRED_FIELDS = ("name", "count", "total_seconds", "mean_seconds",
                   "max_seconds")


def fail(msg):
    print(f"check_perf: FAIL: {msg}")
    sys.exit(1)


def parse_args(argv):
    path = None
    allow_dirty = False
    require_hotpaths = False
    max_phase = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--allow-dirty":
            allow_dirty = True
        elif arg == "--require-hotpaths":
            require_hotpaths = True
        elif arg == "--max-phase":
            i += 1
            if i >= len(argv) or "=" not in argv[i]:
                fail("--max-phase needs NAME=SECONDS")
            name, _, value = argv[i].partition("=")
            try:
                max_phase[name] = float(value)
            except ValueError:
                fail(f"--max-phase {argv[i]!r}: {value!r} is not a number")
        elif arg.startswith("--"):
            fail(f"unknown option {arg!r}")
        elif path is None:
            path = arg
        else:
            fail(f"unexpected argument {arg!r}")
        i += 1
    return path or "BENCH_perf.json", allow_dirty, require_hotpaths, max_phase


def mean_of(seen, name):
    """Mean seconds of a phase, guarding the zero-count division."""
    entry = seen[name]
    count = entry["count"]
    if count <= 0:  # schema pass rejects this, but belt and braces
        fail(f"phase {name!r}: cannot compute mean with count {count}")
    return entry["total_seconds"] / count


def check_ratio(seen, fast_name, slow_name, limit, what):
    fast = mean_of(seen, fast_name)
    slow = mean_of(seen, slow_name)
    if slow <= 0.0:
        fail(f"phase {slow_name!r} recorded zero wall time — timer broken, "
             f"cannot gate {what}")
    if fast > slow * limit:
        fail(f"{what}: {fast_name} mean {fast:.6f}s exceeds "
             f"{limit}x {slow_name} mean {slow:.6f}s")


def parse_cores(prov):
    """Host cores recorded by make_figures in the provenance (`cores=N`).

    Older artifacts predate the field; treat them as a 1-core host so the
    metro gate degrades to its weakest (overhead-only) tier instead of
    failing on a missing key.
    """
    for token in prov.split():
        if token.startswith("cores="):
            try:
                return max(1, int(token[len("cores="):]))
            except ValueError:
                fail(f"provenance cores= field is not an integer: {token!r}")
    return 1


def check_metro_speedup(seen, cores):
    """Gate the sharded Network's speedup, tiered by the artifact host.

    The bench_metro pair times the identical 64-cell scenario serial and at
    8 worker threads.  What that proves depends on how many cores the
    generating host actually had (recorded as cores= in the provenance):

      cores >= 8   the full acceptance bar: >= 3x speedup
      cores >= 4   partial parallelism: >= 1.8x
      cores  < 4   no speedup is physically demonstrable; require only
                   that the barrier/pool machinery stays cheap (the
                   threaded run within 1.5x of serial, covering scheduler
                   noise from oversubscribing 8 threads onto few cores)
    """
    serial = mean_of(seen, "bench_metro_serial")
    threaded = mean_of(seen, "bench_metro_t8")
    if serial <= 0.0 or threaded <= 0.0:
        fail("bench_metro phase recorded zero wall time — timer broken")
    if cores >= 8:
        limit, what = 1.0 / 3.0, "metro 8-thread speedup below 3x"
    elif cores >= 4:
        limit, what = 1.0 / 1.8, f"metro 8-thread speedup below 1.8x ({cores} cores)"
    else:
        limit, what = 1.5, f"metro parallel overhead on a {cores}-core host"
    check_ratio(seen, "bench_metro_t8", "bench_metro_serial", limit, what)


def main():
    path, allow_dirty, require_hotpaths, max_phase = parse_args(sys.argv[1:])
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top-level JSON value must be an object, "
             f"got {type(doc).__name__}")

    prov = doc.get("provenance")
    if not isinstance(prov, str) or "version=" not in prov:
        fail("missing or malformed provenance header")
    if "-dirty" in prov and not allow_dirty:
        fail(f"provenance records a dirty working tree ({prov!r}); "
             "regenerate the artifact from a clean checkout "
             "(or pass --allow-dirty for local iteration)")
    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        fail("missing or empty phases array")

    seen = {}
    for entry in phases:
        if not isinstance(entry, dict):
            fail(f"phase entry must be an object: {entry!r}")
        for field in REQUIRED_FIELDS:
            if field not in entry:
                fail(f"phase entry missing field {field!r}: {entry}")
        name = entry["name"]
        if name in seen:
            fail(f"duplicate phase {name!r}")
        seen[name] = entry
        count = entry["count"]
        total = entry["total_seconds"]
        mean = entry["mean_seconds"]
        mx = entry["max_seconds"]
        # bool is an int subclass; a JSON `true` count must still fail.
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            fail(f"phase {name!r}: count must be an integer >= 1, got {count!r}")
        for label, v in (("total", total), ("mean", mean), ("max", mx)):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
                fail(f"phase {name!r}: {label}_seconds must be >= 0, got {v!r}")
        # mean*count should reproduce total, and no sample exceeds the sum.
        if abs(mean * count - total) > 1e-9 * max(1.0, total):
            fail(f"phase {name!r}: mean*count != total "
                 f"({mean} * {count} != {total})")
        if mx > total + 1e-12:
            fail(f"phase {name!r}: max_seconds {mx} exceeds total {total}")

    missing = [p for p in REQUIRED_PHASES if p not in seen]
    if missing:
        fail(f"required phase(s) absent: {', '.join(missing)}")
    if seen["sweep"]["total_seconds"] <= 0:
        fail("sweep phase recorded zero wall time — timer not running?")
    # The run journal's CI-gated overhead guarantee: re-running the default
    # sweep with per-cycle journaling on must stay within 1.10x of the
    # journal-off sweep (the hooks are allocation-free digest folds; a
    # regression past 10% means someone made them retain or allocate).
    check_ratio(seen, "sweep_journaled", "sweep", 1.10,
                "run-journal overhead regression")
    check_metro_speedup(seen, parse_cores(prov))

    if require_hotpaths:
        missing = [p for p in HOTPATH_PHASES if p not in seen]
        if missing:
            fail(f"hotpath phase(s) absent (run bench_hotpaths --merge-into): "
                 f"{', '.join(missing)}")
        check_ratio(seen, "hotpath_rs_decode_clean", "hotpath_rs_decode_corrupt",
                    1.0 / 1.5, "clean-check fast path regression")
        check_ratio(seen, "hotpath_cycle_untraced", "hotpath_cycle_traced",
                    1.10, "disabled-observability overhead regression")
        # An *installed* profiler must stay cheap: the zones are aggregate
        # counters, not per-event records, so a profiled cycle step costs
        # ~10-20% over the untraced baseline.  The 1.35x bound leaves noise
        # head on a loaded runner while still catching any regression to
        # per-event retention (which would be a multiple, not a percentage).
        check_ratio(seen, "hotpath_cycle_profiled", "hotpath_cycle_untraced",
                    1.35, "live-profiler overhead regression")
        missing = [p for p in MAC_MATRIX_PHASES if p not in seen]
        if missing:
            fail(f"mac-matrix phase(s) absent (run make_figures --mac-matrix): "
                 f"{', '.join(missing)}")
        if seen["bench_mac_matrix"]["total_seconds"] <= 0:
            fail("bench_mac_matrix phase recorded zero wall time — "
                 "timer not running?")

    for name, budget in max_phase.items():
        if name not in seen:
            fail(f"--max-phase {name}: no such phase in {path}")
        total = seen[name]["total_seconds"]
        if total > budget:
            fail(f"phase {name!r}: total {total:.3f}s exceeds budget {budget}s")

    total = sum(e["total_seconds"] for e in phases)
    print(f"check_perf: OK: {path}: {len(phases)} phase(s), "
          f"{total:.3f}s total wall time")
    print(f"  {prov}")


if __name__ == "__main__":
    main()
