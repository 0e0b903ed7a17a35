#!/usr/bin/env python3
"""Validate a speedscope profile written by obs::WriteSpeedscope.

Usage: check_profile.py PROFILE.json [options]

Options:
  --require-frame NAME   fail unless a frame with this exact name exists
                         (repeatable; the CI release-smoke job pins the
                         pipeline zones so instrumentation can't silently
                         fall off the hot path)

Checks, in order:
  1. Schema shape: the speedscope $schema URL, shared.frames as a list of
     objects with non-empty string names, and a non-empty profiles array
     whose entries are evented nanosecond profiles with startValue 0.
  2. Event discipline: every event is an O or C with an in-range frame
     index and a non-negative, non-decreasing timestamp; C events close
     the most recently opened frame (proper stack nesting); the stack is
     empty at the end of each profile.
  3. Accounting: no timestamp exceeds endValue, and the last close lands
     exactly at endValue, so the flame's width equals the recorded zone
     total and speedscope renders without dead space.

CI runs this in the release-smoke job against `osumac_sim --profile`
output so the export format and the zone instrumentation never rot.
"""
import json
import sys

SCHEMA_URL = "https://www.speedscope.app/file-format-schema.json"


def fail(msg):
    print(f"check_profile: FAIL: {msg}")
    sys.exit(1)


def parse_args(argv):
    path = None
    require_frames = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--require-frame":
            i += 1
            if i >= len(argv):
                fail("--require-frame needs a NAME")
            require_frames.append(argv[i])
        elif arg.startswith("--"):
            fail(f"unknown option {arg!r}")
        elif path is None:
            path = arg
        else:
            fail(f"unexpected argument {arg!r}")
        i += 1
    if path is None:
        fail("usage: check_profile.py PROFILE.json [--require-frame NAME]...")
    return path, require_frames


def check_events(profile, frame_count):
    name = profile.get("name", "?")
    events = profile.get("events")
    if not isinstance(events, list):
        fail(f"profile {name!r}: missing events array")
    end_value = profile.get("endValue")
    if not isinstance(end_value, int) or end_value < 0:
        fail(f"profile {name!r}: endValue must be a non-negative integer, "
             f"got {end_value!r}")
    stack = []
    last_at = 0
    for pos, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"profile {name!r}: event {pos} is not an object: {ev!r}")
        kind = ev.get("type")
        frame = ev.get("frame")
        at = ev.get("at")
        if kind not in ("O", "C"):
            fail(f"profile {name!r}: event {pos} has type {kind!r}, "
                 "expected 'O' or 'C'")
        if not isinstance(frame, int) or not 0 <= frame < frame_count:
            fail(f"profile {name!r}: event {pos} frame {frame!r} out of "
                 f"range [0, {frame_count})")
        if not isinstance(at, int) or at < 0:
            fail(f"profile {name!r}: event {pos} timestamp {at!r} must be a "
                 "non-negative integer")
        if at < last_at:
            fail(f"profile {name!r}: event {pos} timestamp {at} goes "
                 f"backwards (previous {last_at})")
        last_at = at
        if at > end_value:
            fail(f"profile {name!r}: event {pos} timestamp {at} exceeds "
                 f"endValue {end_value}")
        if kind == "O":
            stack.append(frame)
        else:
            if not stack:
                fail(f"profile {name!r}: event {pos} closes frame {frame} "
                     "with an empty stack")
            if stack[-1] != frame:
                fail(f"profile {name!r}: event {pos} closes frame {frame} "
                     f"but frame {stack[-1]} is open (broken nesting)")
            stack.pop()
    if stack:
        fail(f"profile {name!r}: {len(stack)} frame(s) left open at the end")
    if events and last_at != end_value:
        fail(f"profile {name!r}: last event at {last_at} but endValue is "
             f"{end_value} (flame width != zone total)")
    return len(events)


def main():
    path, require_frames = parse_args(sys.argv[1:])
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top-level JSON value must be an object")
    if doc.get("$schema") != SCHEMA_URL:
        fail(f"$schema is {doc.get('$schema')!r}, expected {SCHEMA_URL!r}")

    frames = doc.get("shared", {}).get("frames")
    if not isinstance(frames, list):
        fail("missing shared.frames array")
    names = []
    for pos, frame in enumerate(frames):
        if not isinstance(frame, dict) or not isinstance(frame.get("name"), str) \
                or not frame["name"]:
            fail(f"shared.frames[{pos}] must be an object with a non-empty "
                 f"string name: {frame!r}")
        names.append(frame["name"])
    if len(set(names)) != len(names):
        fail("shared.frames contains duplicate names")

    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        fail("missing or empty profiles array")
    event_count = 0
    for profile in profiles:
        if not isinstance(profile, dict):
            fail(f"profile entry must be an object: {profile!r}")
        if profile.get("type") != "evented":
            fail(f"profile type {profile.get('type')!r}, expected 'evented'")
        if profile.get("unit") != "nanoseconds":
            fail(f"profile unit {profile.get('unit')!r}, expected "
                 "'nanoseconds'")
        if profile.get("startValue") != 0:
            fail(f"profile startValue {profile.get('startValue')!r}, "
                 "expected 0")
        event_count += check_events(profile, len(names))

    missing = [n for n in require_frames if n not in names]
    if missing:
        fail(f"required frame(s) absent: {', '.join(missing)}; "
             f"have: {', '.join(sorted(names))}")

    print(f"check_profile: OK: {path}: {len(names)} frame(s), "
          f"{len(profiles)} profile(s), {event_count} event(s)")


if __name__ == "__main__":
    main()
