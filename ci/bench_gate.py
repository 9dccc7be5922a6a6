#!/usr/bin/env python3
"""The BENCH snapshot gate: footprint ceilings and a parallel speed floor.

Usage: python3 ci/bench_gate.py BENCH_hotpaths.json BENCH_liveness.json

Every snapshot has the one shape `tta_bench::Runs` writes: `{snapshot,
host_cpus, note, runs}`, where each row of `runs` is `{workload, threads,
comparable, seconds_per_iter, iters_per_second}` plus its named counts.

* Ceilings. Each row below must exist in one of the snapshots, and its
  count must not exceed the limit. Footprints are a deterministic function
  of the code, so this runs on any runner. Each limit sits above the value
  with the word arena, which stores each state's live words only (33.1;
  90.6 and 101.8 B/state counting the rows it holds, 45.8; 103.3 and 115.6
  counting vector capacity), and below the one before it, with the delta
  arena and the fair graph's 72-byte states (62.2; 195.0 and 162.1 B/state
  by capacity).
* Speed floor. On a host with at least 2 CPUs, every comparable row of a
  gated workload at 2 or more threads must run at least its floor's
  multiple of the 1-thread row's speed: 1.2x for the explorer, 1x (at
  least as fast) for the fair-graph build and check. Rows with
  `comparable: false` used more threads than the host has CPUs and are
  skipped: time-slicing one core measures scheduling, not scaling. A
  snapshot with no comparable parallel row to gate fails.

  The explorer is gated on its 5-node walk (931,986 states, about a
  second per call, 1- and 2-thread calls interleaved), not on the
  40,055-state `explore/small_shifting` rows: those calls take tens of
  milliseconds and their layers fill few work chunks, so on a busy host
  their ratio follows the host's load, not the code. On a shared 2-CPU
  host the 5-node walk read 1.41-1.86x in ten runs, and 0.93-0.99x with
  its 2-thread layer step forced onto one thread; the floor sits
  between.

Exits 1 listing every failure, 0 otherwise.
"""

import json
import sys

CEILINGS = {
    ("explore/small_shifting", "bytes_per_state"): 54.0,
    ("liveness_build/small_shifting", "graph_bytes_per_state"): 150.0,
    ("liveness_build/full_shifting", "graph_bytes_per_state"): 139.0,
}
# Workload prefix -> the least speedup its >= 2-thread rows must reach.
SPEED_FLOOR = {
    "explore/small_shifting_5_nodes": 1.2,
    "liveness_build/": 1.0,
    "liveness_check/": 1.0,
}


def ceilings(snapshots, failures):
    for (workload, count), limit in CEILINGS.items():
        found = [
            (path, row[count])
            for path, snap in snapshots
            for row in snap["runs"]
            if row["workload"] == workload and count in row
        ]
        if not found:
            failures.append(f"no {workload} row carries {count}")
        for path, value in found:
            status = "ok" if value <= limit else "FAIL"
            print(f"{path}: {workload} {count} {value:.1f} B/state (ceiling {limit}) ... {status}")
            if value > limit:
                failures.append(f"{path}: {workload} {count} {value:.1f} B/state exceeds {limit}")


def speed_floor(path, snap, failures):
    host = snap["host_cpus"]
    if host < 2:
        print(f"{path}: host has {host} CPU(s) — speed floor skipped")
        return
    floors = {
        r["workload"]: floor
        for r in snap["runs"]
        for prefix, floor in SPEED_FLOOR.items()
        if r["workload"].startswith(prefix)
    }
    rows = [r for r in snap["runs"] if r["workload"] in floors]
    one_thread = {r["workload"]: r for r in rows if r["threads"] == 1}
    checked = 0
    for row in rows:
        if row["threads"] < 2 or not row["comparable"]:
            continue
        checked += 1
        workload, threads = row["workload"], row["threads"]
        base = one_thread.get(workload)
        if base is None:
            failures.append(f"{path}: {workload} has no 1-thread row to compare {threads} threads with")
            continue
        speedup = base["seconds_per_iter"] / row["seconds_per_iter"]
        floor = floors[workload]
        status = "ok" if speedup >= floor else "FAIL"
        print(f"{path}: {workload} {threads} threads -> {speedup:.3f}x 1 thread (floor {floor}x) ... {status}")
        if speedup < floor:
            failures.append(f"{path}: {workload} at {threads} threads ran {speedup:.3f}x 1 thread, below {floor}x")
    if checked == 0:
        failures.append(f"{path}: no comparable parallel row to gate")


def main(paths):
    if not paths:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    snapshots = []
    for path in paths:
        with open(path) as f:
            snapshots.append((path, json.load(f)))
    failures = []
    ceilings(snapshots, failures)
    for path, snap in snapshots:
        speed_floor(path, snap, failures)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
