#!/bin/sh
# Tier-1 check wrapper: configure, build, and run the test suite.
#
# Usage:
#   tools/check.sh            # full suite
#   tools/check.sh --quick    # only tests labeled "quick"
#   tools/check.sh --bench    # sim-speed regression gate + repeat-
#                             # run determinism smoke (contract below)
#   tools/check.sh --faults   # build + run the fault-storm soak (the
#                             # graceful-degradation contracts; nonzero
#                             # exit on any violation)
#   tools/check.sh --vf       # build + run the VF isolation soak (the
#                             # vnic blast-radius contracts; nonzero
#                             # exit on any violation)
#   tools/check.sh --fleet    # fleet smoke: run the fleet unit/
#                             # determinism suite, then the quick fleet
#                             # soak (scaling + thread-count
#                             # determinism contracts; nonzero exit on
#                             # any violation)
#   tools/check.sh --chaos    # fleet fault-domain smoke: run the
#                             # chaos unit suite (fault injector,
#                             # health monitor, reliable delivery),
#                             # then the quick chaos soak (zero e2e
#                             # loss, exact recovery accounting,
#                             # chaos determinism; nonzero exit on
#                             # any violation)
#   TENGIG_SANITIZE=ON tools/check.sh
#                             # ASan+UBSan build in a separate tree
#   TENGIG_TSAN=ON tools/check.sh --fleet
#                             # ThreadSanitizer build in a separate
#                             # tree (the fleet worker pool is the only
#                             # multithreaded simulation path)
#
# Extra arguments after --quick are passed through to ctest
# (e.g. tools/check.sh -R Traffic).
#
# --bench contract
# ----------------
# Wall-clock throughput is machine-dependent, so the committed
# BENCH_sim_speed.json is never used as a pass/fail reference: a
# machine slower than the one that produced it would fail the gate
# without any code change.  Instead the gate measures BOTH sides on
# this machine, best of three runs each:
#
#   reference   the committed tree (git HEAD), built into
#               build/benchref/ (reused while HEAD is unchanged)
#   candidate   the working tree, built into the normal build dir
#
# and fails when any row's candidate simulated time per host second
# (simMticksPerSec) falls below (1 - tolerance) x reference.  Host
# events/sec is not gated: a change that adds or removes events moves
# it without the simulator getting faster or slower, while simulated
# time per host second stays the end-to-end cost of the same run.  The
# tolerance defaults to 0.10 and is
# overridable via TENGIG_BENCH_TOLERANCE (e.g. 0.25 on very noisy
# shared machines).  The committed baseline is still printed as an
# informational column.  When the tree is not a git checkout the gate
# degrades to informational-only output against the committed file.
#
# --bench also runs the determinism smoke first: a repeated duplex run
# (and the threaded sweep runner) must reproduce every result, the stat
# tree and the Chrome trace bit for bit (tests/test_sim_speed,
# Determinism.*).

set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
sanitize=${TENGIG_SANITIZE:-OFF}
tsan=${TENGIG_TSAN:-OFF}

build="$repo/build"
if [ "$sanitize" = "ON" ]; then
    build="$repo/build-asan"
fi
if [ "$tsan" = "ON" ]; then
    build="$repo/build-tsan"
fi

if [ "${1:-}" = "--bench" ]; then
    # Simulator-speed gate; see the header contract.  Build the
    # working-tree candidate first.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target sim_speed \
        --target test_sim_speed

    # Determinism smoke: repeat runs must be bit-identical before any
    # throughput number means anything.
    "$build/tests/test_sim_speed" --gtest_filter='Determinism.*'

    # Wall-clock benches are noisy: take each row's best of three runs
    # on both sides before comparing.
    fresh="$build/BENCH_sim_speed.fresh.json"
    "$build/bench/sim_speed" "--json=$fresh"
    "$build/bench/sim_speed" "--json=$fresh.2"
    "$build/bench/sim_speed" "--json=$fresh.3"

    tolerance=${TENGIG_BENCH_TOLERANCE:-0.10}
    baseline="$repo/BENCH_sim_speed.json"

    # Fresh-built reference: the committed tree (HEAD), built and
    # measured on THIS machine so the comparison is load- and
    # hardware-matched.  Reused across runs while HEAD is unchanged.
    ref=""
    head_commit=$(git -C "$repo" rev-parse HEAD 2>/dev/null || true)
    if [ -n "$head_commit" ]; then
        refdir="$build/benchref"
        if [ ! -f "$refdir/.ref-commit" ] ||
           [ "$(cat "$refdir/.ref-commit")" != "$head_commit" ]; then
            rm -rf "$refdir"
            mkdir -p "$refdir/src"
            git -C "$repo" archive "$head_commit" | tar -x -C "$refdir/src"
            cmake -B "$refdir/build" -S "$refdir/src" \
                -DTENGIG_SANITIZE="$sanitize" -DTENGIG_TSAN="$tsan"
            cmake --build "$refdir/build" -j"$(nproc)" --target sim_speed
            printf '%s\n' "$head_commit" > "$refdir/.ref-commit"
        fi
        ref="$refdir/BENCH_sim_speed.ref.json"
        "$refdir/build/bench/sim_speed" "--json=$ref"
        "$refdir/build/bench/sim_speed" "--json=$ref.2"
        "$refdir/build/bench/sim_speed" "--json=$ref.3"
    elif [ ! -f "$baseline" ]; then
        echo "no git HEAD and no committed baseline; wrote $fresh"
        exit 0
    fi

    TENGIG_BENCH_REF="$ref" python3 - "$tolerance" "$baseline" \
        "$fresh" "$fresh.2" "$fresh.3" <<'EOF'
import json, os, sys

METRIC = "simMticksPerSec"

def best_rows(paths):
    """Per-row best simulated time per host second across repeated runs."""
    best = {}
    for path in paths:
        for r in json.load(open(path))["rows"]:
            m = best.setdefault(r["name"], r["metrics"])
            if r["metrics"][METRIC] > m[METRIC]:
                best[r["name"]] = r["metrics"]
    return best

tolerance = float(sys.argv[1])
fresh = best_rows(sys.argv[3:])
committed = {}
if os.path.exists(sys.argv[2]):
    committed = {r["name"]: r["metrics"]
                 for r in json.load(open(sys.argv[2]))["rows"]}

ref_path = os.environ.get("TENGIG_BENCH_REF", "")
reference = {}
if ref_path:
    reference = best_rows([ref_path, ref_path + ".2", ref_path + ".3"])

gate = 1.0 - tolerance
print()
print("sim_speed: simulated Mticks per host second, best of 3 per side "
      "(gate: >= %.2fx of same-machine reference)" % gate)
print("%-30s %12s %12s %12s %8s" %
      ("config", "committed", "reference", "now", "ratio"))
regressed = []
for name, m in fresh.items():
    c = committed.get(name)
    ref = reference.get(name)
    cstr = "%12.0f" % c[METRIC] if c else "%12s" % "-"
    if ref is None:
        print("%-30s %s %12s %12.0f %8s" %
              (name, cstr, "-", m[METRIC], "info"))
        continue
    ratio = m[METRIC] / ref[METRIC]
    flag = " REGRESSED" if ratio < gate else ""
    print("%-30s %s %12.0f %12.0f %7.2fx%s" %
          (name, cstr, ref[METRIC], m[METRIC], ratio, flag))
    if ratio < gate:
        regressed.append(name)
if regressed:
    print()
    print("FAIL: >%.0f%% simulation-speed regression vs the same-machine"
          " reference on: %s" % (tolerance * 100, ", ".join(regressed)))
    print("(override with TENGIG_BENCH_TOLERANCE=<fraction>)")
    sys.exit(1)
EOF
    exit $?
fi

if [ "${1:-}" = "--faults" ]; then
    # Fault-injection soak: the bench itself asserts the degradation
    # contracts (zero corrupted payloads, full fault accounting, >= 95%
    # post-storm recovery) and exits nonzero on any violation.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target fault_storm
    exec "$build/bench/fault_storm" "--json=$build/BENCH_fault_storm.json"
fi

if [ "${1:-}" = "--vf" ]; then
    # VF isolation soak: the bench asserts the blast-radius contracts
    # (victim >= 95% of solo under a neighbor storm, weighted shares
    # within 5%, per-tenant fault accounting exact) and exits nonzero
    # on any violation.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target vf_isolation
    exec "$build/bench/vf_isolation" "--json=$build/BENCH_vf_isolation.json"
fi

if [ "${1:-}" = "--fleet" ]; then
    # Fleet smoke: the unit/determinism suite first (switch model,
    # config validation, bit-identical results across thread counts),
    # then the quick soak, which asserts the scaling and 1-vs-4-thread
    # determinism contracts itself and exits nonzero on any violation.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target test_fleet --target fleet
    "$build/tests/test_fleet"
    exec "$build/bench/fleet" --quick "--json=$build/BENCH_fleet.smoke.json"
fi

if [ "${1:-}" = "--chaos" ]; then
    # Fleet fault-domain smoke: the unit suite first (fault-plan
    # validation, deterministic/decorrelated fault streams, health
    # monitoring, paced posting, small recovery runs), then the quick
    # chaos soak, which asserts the storm/recovery contracts itself
    # and exits nonzero on any violation.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target test_fleet_chaos \
        --target fleet_chaos
    "$build/tests/test_fleet_chaos"
    exec "$build/bench/fleet_chaos" --quick \
        "--json=$build/BENCH_fleet_chaos.smoke.json"
fi

ctest_args="--output-on-failure -j$(nproc)"
if [ "${1:-}" = "--quick" ]; then
    shift
    ctest_args="$ctest_args -L quick"
fi

cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
cmake --build "$build" -j"$(nproc)"
cd "$build"
# shellcheck disable=SC2086
exec ctest $ctest_args "$@"
