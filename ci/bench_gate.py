#!/usr/bin/env python3
"""The BENCH snapshot gate: footprint ceilings and a parallel speed floor.

Usage: python3 ci/bench_gate.py BENCH_hotpaths.json BENCH_liveness.json

Every snapshot has the one shape `tta_bench::Runs` writes: `{snapshot,
host_cpus, note, runs}`, where each row of `runs` is `{workload, threads,
comparable, seconds_per_iter, iters_per_second}` plus its named counts.

* Ceilings. Each row below must exist in one of the snapshots, and its
  count must not exceed the limit. Footprints are a deterministic function
  of the code (capacity-based accounting), so this runs on any runner. Each
  limit sits between the value with the compact visited index (62.2; 195.0
  and 162.1 B/state) and the one before it (94.9; 230.9 and 176.9 B/state).
* Speed floor. On a host with at least 2 CPUs, every comparable row of a
  gated family at 2 or more threads must be at least as fast as the
  1-thread row of the same workload. Rows with `comparable: false` used
  more threads than the host has CPUs and are skipped: time-slicing one
  core measures scheduling, not scaling. A snapshot with no comparable
  parallel row to gate fails.

Exits 1 listing every failure, 0 otherwise.
"""

import json
import sys

CEILINGS = {
    ("explore/small_shifting", "bytes_per_state"): 80.0,
    ("liveness_build/small_shifting", "graph_bytes_per_state"): 212.0,
    ("liveness_build/full_shifting", "graph_bytes_per_state"): 170.0,
}
SPEED_FLOOR = ("explore/", "liveness_build/", "liveness_check/")


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
    rows = [r for r in snap["runs"] if r["workload"].startswith(SPEED_FLOOR)]
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
        status = "ok" if speedup >= 1.0 else "FAIL"
        print(f"{path}: {workload} {threads} threads -> {speedup:.3f}x 1 thread ... {status}")
        if speedup < 1.0:
            failures.append(f"{path}: {workload} at {threads} threads ran {speedup:.3f}x 1 thread")
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
