#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --update   # re-pin after an explained change

Run from the repository root.  For the default seed (1) it runs every
workload untraced and traced and compares each deterministic metric --
the simulated end-to-end metrics and every count-type per-layer metric
-- with the values pinned in pinned_seed1.json, naming each metric that
moved.  It then runs every workload on the held-out seed (2) and
requires all output checks to pass there too.  It also checks that
the printed metric names and units are exactly those BENCHMARK.json
declares.  Exit code 0 means all held.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned_seed1.json"
WORKLOADS = ("duplex_mtu", "imix64_paced_tasklevel", "fleet_ring3")
DEFAULT_SEED, HELD_OUT_SEED = 1, 2

# Host-time metrics: they vary run to run and are never pinned.
HOST_METRICS = {
    "sim_us_per_s", "cpu_s_per_sim_ms", "setup_s", "peak_rss_mb",
    "sim.host_ns_per_event", "nic.construct_s", "nic.start_s",
    "nic.warmup_s", "nic.collect_s", "obs.stat_json_s",
    "fleet.construct_s", "fleet.threaded_sim_us_per_s",
    "fleet.cpu_parallelism", "fleet.parallel_efficiency",
    "bench.trace_overhead_share",
}


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: "
                         f"exit {out.returncode}")
    return result


def check_declared(result: dict, trace: int) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        diff = sorted(set(printed.items()) ^ set(declared.items()))
        raise SystemExit(f"FAIL trace {trace}: printed metrics differ from "
                         f"BENCHMARK.json: {diff}")


def deterministic(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k not in HOST_METRICS}


def main() -> int:
    update = "--update" in sys.argv[1:]
    measured = {}
    for w in WORKLOADS:
        measured[w] = {}
        for trace in (0, 1):
            result = run(w, DEFAULT_SEED, trace)
            check_declared(result, trace)
            measured[w].update(deterministic(result))

    if update:
        PINNED.write_text(json.dumps(measured, indent=2, sort_keys=True)
                          + "\n")
        print(f"pinned {sum(map(len, measured.values()))} metrics "
              f"to {PINNED.name}")
    else:
        pinned = json.loads(PINNED.read_text())
        moved = []
        for w in WORKLOADS:
            want, got = pinned.get(w, {}), measured[w]
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    moved.append(f"{w}: {name} pinned {want.get(name)!r}, "
                                 f"measured {got.get(name)!r}")
        for m in moved:
            print("MOVED", m)
        if moved:
            print(f"{len(moved)} pinned metric(s) moved; explain the change "
                  f"and re-pin with --update")
            return 1
        print(f"all {sum(map(len, pinned.values()))} pinned metrics "
              f"unchanged for seed {DEFAULT_SEED}")

    for w in WORKLOADS:
        run(w, HELD_OUT_SEED, 0)
    print(f"all output checks pass on held-out seed {HELD_OUT_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
