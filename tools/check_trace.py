#!/usr/bin/env python3
"""Validates observability artifacts produced by osumac_sim.

    python3 tools/check_trace.py out.json        # Chrome trace (--trace)
    python3 tools/check_trace.py --flight DIR    # flight dump (--flight-dir)

Chrome-trace mode (CI runs this on the trace-smoke artifact) checks:
  - the file is valid JSON with a non-empty `traceEvents` array;
  - every event carries the required trace-event keys for its phase
    (`X` complete spans need ts/dur, `i` instants need ts, `M` metadata
    needs args.name, async lifecycle spans `b`/`n`/`e` need ts/id);
  - per lifecycle id: at most one `b` (birth), nothing after the terminal
    `e`, and timestamps never go backwards.  Spans whose birth predates the
    trace attach point ("truncated-head": `n`/`e` with no `b`) and spans
    still open at the end of the window are tolerated and counted — the
    trace is a ring over a window, not the whole run;
  - durations are non-negative and emission ticks (args.tick) never go
    backwards globally;
  - the ring buffer did not drop events (`otherData.dropped == 0`), since a
    wrapped trace reconstructs only a suffix of the run;
  - the provenance line is present, so the artifact says what produced it.

Flight mode checks a FlightRecorder dump:
  - a `journal divergence:` trip named in the MANIFEST cites a known
    component and the MANIFEST's own trip cycle;
  - DIR/events.jsonl (the obs JSONL schema) obeys the same per-lifecycle
    structural rules;
  - DIR/lifecycles.txt, the dump's post-mortem (obs::WriteLifecycleReport:
    dropped lifecycles' stage chains and blown GPS budgets), is present,
    and a `gps_delivery_gap` trip is explained by at least one
    `BLOWN BUDGET` line in it.  Its BLOWN BUDGET lines are echoed.

Exit status 0 on success, 1 with a diagnostic on the first failure.
"""
from __future__ import annotations

import json
import os
import re
import sys

STAGE_DROPPED = 9
STAGE_DELIVERED = 5
STAGE_ACKED = 6
CLASS_GPS = 1


def fail(message: str) -> None:
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def need(ev: dict, key: str, where: str):
    """Fetch a required event field, failing with a diagnostic (not a
    KeyError traceback) when a malformed producer omitted it."""
    if not isinstance(ev, dict):
        fail(f"{where}: event is not an object: {ev!r}")
    if key not in ev:
        fail(f"{where}: event missing required field {key!r}: {ev}")
    return ev[key]


def terminal(stage: int, cls: int) -> bool:
    if stage == STAGE_DROPPED:
        return True
    return stage == (STAGE_DELIVERED if cls == CLASS_GPS else STAGE_ACKED)


class SpanTracker:
    """Per-lifecycle-id structural rules shared by both modes."""

    def __init__(self) -> None:
        self.states: dict = {}  # id -> {"born", "done", "last_ts"}

    def observe(self, span_id, is_birth: bool, is_terminal: bool, ts,
                where: str) -> None:
        st = self.states.setdefault(
            span_id, {"born": False, "done": False, "last_ts": None})
        if st["done"]:
            fail(f"{where}: lifecycle {span_id} has events after its "
                 f"terminal stage")
        if is_birth:
            if st["born"]:
                fail(f"{where}: duplicate birth for lifecycle {span_id}")
            st["born"] = True
        if st["last_ts"] is not None and ts < st["last_ts"]:
            fail(f"{where}: lifecycle {span_id} timestamps went backwards "
                 f"({ts} < {st['last_ts']})")
        st["last_ts"] = ts
        if is_terminal:
            st["done"] = True

    def summary(self) -> tuple:
        complete = truncated = opened = 0
        for st in self.states.values():
            if st["born"] and st["done"]:
                complete += 1
            elif st["done"]:
                truncated += 1  # head predates the trace window
            else:
                opened += 1  # still in flight at window end
        return complete, truncated, opened


def check_chrome_trace(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top-level JSON value must be an object, "
             f"got {type(doc).__name__}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    spans = instants = async_events = 0
    tracker = SpanTracker()
    last_tick = float("-inf")
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("X", "i", "M", "b", "n", "e"):
            fail(f"event {i}: unexpected phase {ph!r}")
        if "name" not in e or "pid" not in e or "tid" not in e:
            fail(f"event {i}: missing name/pid/tid")
        if ph == "M":
            if e.get("name") == "thread_name" and "name" not in e.get("args", {}):
                fail(f"event {i}: thread_name metadata without args.name")
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"event {i}: missing ts")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"event {i}: complete span with bad dur {dur!r}")
            spans += 1
        elif ph in ("b", "n", "e"):
            span_id = e.get("id")
            if not span_id:
                fail(f"event {i}: async event without id")
            args = e.get("args", {})
            stage = args.get("a0")
            cls = args.get("a3")
            if stage is None or cls is None:
                fail(f"event {i}: lifecycle event without a0/a3 args")
            # The emitter derives the phase from the stage; both must agree.
            expect = "b" if stage == 0 else ("e" if terminal(stage, cls) else "n")
            if ph != expect:
                fail(f"event {i}: stage {stage} emitted as ph={ph!r}, "
                     f"expected {expect!r}")
            tracker.observe(span_id, ph == "b", ph == "e", ts, f"event {i}")
            async_events += 1
        else:
            instants += 1
        tick = e.get("args", {}).get("tick")
        if tick is not None:
            if tick < last_tick:
                fail(f"event {i}: emission tick went backwards "
                     f"({tick} < {last_tick})")
            last_tick = tick

    other = doc.get("otherData", {})
    if other.get("dropped", 0) != 0:
        fail(f"ring buffer dropped {other['dropped']} events (trace truncated)")
    if "provenance" not in other:
        fail("otherData.provenance missing")

    complete, truncated, opened = tracker.summary()
    print(f"check_trace: OK: {spans} spans, {instants} instants, "
          f"{async_events} lifecycle events "
          f"({complete} complete / {truncated} truncated-head / {opened} open), "
          f"{other.get('recorded', '?')} recorded, 0 dropped")
    return 0


def load_jsonl(path: str) -> list:
    events = []
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError as e:
                    fail(f"{path}:{lineno}: {e}")
    except OSError as e:
        fail(f"{path}: {e}")
    return events


#: Component names a journal-divergence trip reason may cite — the
#: kJournalComponents list plus the chain-only fallback (run_journal.h).
JOURNAL_COMPONENTS = ("slot_grid", "queues", "counters", "slo", "events",
                      "chain")


def check_journal_trip(trip_reason: str, manifest_cycle: int | None) -> None:
    """A `journal divergence:` trip must name the divergent cycle (agreeing
    with the MANIFEST's own cycle line) and a known component, so the dump
    can be cross-referenced with tools/osumac_diff.py mechanically."""
    m = re.match(r"journal divergence: cycle (\d+): (\w+) hash diverged",
                 trip_reason)
    if m is None:
        fail(f"malformed journal-divergence trip reason: {trip_reason!r}")
    cycle, component = int(m.group(1)), m.group(2)
    if component not in JOURNAL_COMPONENTS:
        fail(f"trip reason names unknown journal component {component!r} "
             f"(expected one of {', '.join(JOURNAL_COMPONENTS)})")
    if manifest_cycle is None:
        fail("journal-divergence dump MANIFEST carries no 'cycle:' line")
    if manifest_cycle != cycle:
        fail(f"trip reason names cycle {cycle} but MANIFEST records trip "
             f"cycle {manifest_cycle}")
    print(f"  journal divergence localized: cycle {cycle}, "
          f"component {component}")


def check_flight_dump(dump_dir: str) -> int:
    manifest_path = os.path.join(dump_dir, "MANIFEST.txt")
    trip_reason = "?"
    manifest_cycle = None
    try:
        with open(manifest_path, encoding="utf-8") as f:
            for line in f:
                if line.startswith("reason: "):
                    trip_reason = line[len("reason: "):].strip()
                elif line.startswith("cycle: "):
                    try:
                        manifest_cycle = int(line[len("cycle: "):].strip())
                    except ValueError:
                        fail(f"malformed MANIFEST cycle line: {line.strip()!r}")
    except OSError as e:
        fail(f"{manifest_path}: {e}")

    events = load_jsonl(os.path.join(dump_dir, "events.jsonl"))
    if not events:
        fail("events.jsonl is empty")

    # Structural pass over the lifecycle events.
    tracker = SpanTracker()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or ev.get("kind") != "lifecycle":
            continue
        where = f"events.jsonl event {i}"
        stage = need(ev, "a0", where)
        span_id = need(ev, "a1", where)
        cls = need(ev, "a3", where)
        tracker.observe(span_id, stage == 0, terminal(stage, cls),
                        need(ev, "tick", where), where)
    if not tracker.states:
        fail("no lifecycle events in the dump window")
    complete, truncated, opened = tracker.summary()

    print(f"check_trace: flight dump {dump_dir}")
    print(f"  trip: {trip_reason}")
    if trip_reason.startswith("journal divergence:"):
        check_journal_trip(trip_reason, manifest_cycle)
    print(f"  lifecycles: {len(tracker.states)} "
          f"({complete} complete / {truncated} truncated-head / {opened} open)")

    report_path = os.path.join(dump_dir, "lifecycles.txt")
    try:
        with open(report_path, encoding="utf-8") as f:
            blown = [line.rstrip("\n") for line in f
                     if line.startswith("BLOWN BUDGET")]
    except OSError as e:
        fail(f"{report_path}: {e}")
    for line in blown:
        print(f"  {line}")
    if "gps_delivery_gap" in trip_reason and not blown:
        fail("trip reason names a gps_delivery_gap miss but lifecycles.txt "
             "has no BLOWN BUDGET line")
    print(f"check_trace: OK: flight dump validated "
          f"({len(events)} events, {len(blown)} blown GPS budget(s) explained)")
    return 0


def main() -> int:
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--flight":
        return check_flight_dump(args[1])
    if len(args) == 1 and not args[0].startswith("-"):
        return check_chrome_trace(args[0])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
