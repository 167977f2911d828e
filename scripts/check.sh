#!/usr/bin/env bash
# Full pre-merge check: Release build + tier-1 tests (library probes on
# the default native engine, the engine-equality suite against the
# reference interpreter), the figure-, chaos-, sched-, fleet- and
# remaining-bench golden hashes and benchmark workload digests,
# sanitizer build + tier-1 tests + the examples and golden-hashed
# benches under the sanitizers, then the gated host-perf report
# (BENCH_perf.json), the gated scale report
# (BENCH_scale.json: scalar per-event tracepoint dispatch, the path
# every experiment takes), the closed-loop control report
# (BENCH_control.json), the front-door storm report
# (BENCH_frontdoor.json), the run-queue-latency report
# (BENCH_runqlat.json) at the repo root and the benchmark smoke test.
# Run from anywhere; all paths are repo-relative.
#
# Usage: scripts/check.sh [--no-sanitize] [--no-bench]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
run_sanitize=1
run_bench=1
for arg in "$@"; do
    case "$arg" in
    --no-sanitize) run_sanitize=0 ;;
    --no-bench) run_bench=0 ;;
    *)
        echo "unknown option: $arg" >&2
        exit 2
        ;;
    esac
done

echo "== Release build + tests =="
cmake -B "$repo/build-check" -S "$repo" \
    -DCMAKE_BUILD_TYPE=Release -DREQOBS_WERROR=ON -DREQOBS_NATIVE=ON
cmake --build "$repo/build-check" -j "$jobs"
# Per-test TIMEOUT properties come from tests/CMakeLists.txt; --timeout
# is the belt-and-braces ceiling so a hung sampler can never wedge CI.
ctest --test-dir "$repo/build-check" --output-on-failure -j "$jobs" \
    --timeout 300

# The fleet suite (tenant probes, load balancing, cluster harness) runs
# in the full sweep above; run it by label too so a filtered tier-1
# invocation can never silently drop it.
echo "== Fleet suite =="
ctest --test-dir "$repo/build-check" --output-on-failure -j "$jobs" \
    -L fleet --timeout 300

# The control suite (closed-loop controller, eHashPipe sketch): same
# belt-and-braces label run.
echo "== Control suite =="
ctest --test-dir "$repo/build-check" --output-on-failure -j "$jobs" \
    -L control --timeout 300

# The storm suite (host-network front door: drop accounting, backoff
# determinism, storm isolation, engine equality of the front-door
# probe): same belt-and-braces label run.
echo "== Storm suite =="
ctest --test-dir "$repo/build-check" --output-on-failure -j "$jobs" \
    -L storm --timeout 300

# The sched suite (discrete-dispatch scheduler, runqlat probe pair,
# GPS convergence, cluster runqlat determinism): same belt-and-braces
# label run.
echo "== Sched suite =="
ctest --test-dir "$repo/build-check" --output-on-failure -j "$jobs" \
    -L sched --timeout 300

# Cluster runs must be bit-deterministic: same config, same bytes. Run
# the co-location bench twice and require byte-identical stdout + JSON.
echo "== Cluster determinism =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$repo/build-check/bench/bench_colocation" --json "$tmp/a.json" \
    > "$tmp/a.out"
"$repo/build-check/bench/bench_colocation" --json "$tmp/b.json" \
    > "$tmp/b.out"
cmp "$tmp/a.json" "$tmp/b.json"
# stdout embeds the --json path; compare with it normalized.
diff <(sed "s#$tmp/a.json#J#" "$tmp/a.out") \
    <(sed "s#$tmp/b.json#J#" "$tmp/b.out")

# The five paper-figure benches are the repo's headline artifacts: their
# stdout must stay byte-identical to the recorded golden hashes, so no
# refactor (in particular, nothing on the shared TCP backoff or
# front-door path, which is strictly opt-in) can silently perturb the
# persistent-flow results.
echo "== Figure-bench golden hashes =="
for fig in bench_fig1_trace bench_fig2_rps_correlation \
    bench_fig3_send_variance bench_fig4_epoll_duration \
    bench_fig5_loss_tail; do
    "$repo/build-check/bench/$fig" > "$tmp/$fig"
done
(cd "$tmp" && sha256sum -c "$repo/scripts/figure_bench_golden.sha256")

# bench_fault_matrix and bench_supervisor are the only benches that
# drive connection resets through the client and run the loss-aware and
# supervised agent paths, which the figure hashes never reach. Their
# stdout is pinned the same way: neither prints host or timing data,
# and both read the same serial or parallel (REQOBS_JOBS=1 or 4).
echo "== Chaos-bench golden hashes =="
for bench in bench_fault_matrix bench_supervisor; do
    "$repo/build-check/bench/$bench" > "$tmp/$bench"
done
(cd "$tmp" && sha256sum -c "$repo/scripts/chaos_bench_golden.sha256")

# bench_runqlat is the only bench on the discrete scheduler, whose lone
# runs let one slice event stand for a chain of quantum boundaries; the
# figure hashes never reach it. Its stdout (no --json) is pinned the
# same way and reads the same at REQOBS_JOBS=1 and 4.
echo "== Sched-bench golden hash =="
"$repo/build-check/bench/bench_runqlat" > "$tmp/bench_runqlat"
(cd "$tmp" && sha256sum -c "$repo/scripts/sched_bench_golden.sha256")

# bench_fleet, bench_colocation and bench_control run the tenant-scoped
# agent on GPS fleets, co-located tenants and the closed loop, which no
# other hash reaches. Their stdout (no --json) is pinned the same way and
# reads the same at REQOBS_JOBS=1 and 4.
echo "== Fleet-bench golden hashes =="
for bench in bench_fleet bench_colocation bench_control; do
    "$repo/build-check/bench/$bench" > "$tmp/$bench"
done
(cd "$tmp" && sha256sum -c "$repo/scripts/fleet_bench_golden.sha256")

# The remaining eight deterministic benches: the two tables, the
# overhead and ablation benches and bench_frontdoor (stdout, no --json).
# bench_ablation_iouring is the only bench that runs io_uring_enter, and
# bench_frontdoor the only one on the acceptor's accept/epoll path. None
# prints host or timing data, and each reads the same at REQOBS_JOBS=1
# and 4.
echo "== Remaining-bench golden hashes =="
remaining_benches="bench_table1_system bench_table2_network_r2 bench_overhead
    bench_ablation_window bench_ablation_reconstruct bench_ablation_stalls
    bench_ablation_iouring bench_frontdoor"
for bench in $remaining_benches; do
    "$repo/build-check/bench/$bench" > "$tmp/$bench"
done
(cd "$tmp" && sha256sum -c "$repo/scripts/remaining_bench_golden.sha256")

# The figure hashes never reach the cluster, discrete-scheduler and
# front-door paths; the benchmark's four workloads do. Their result
# digests at a fixed seed and scale are the same byte contract there.
echo "== Benchmark workload digests =="
grep -v '^#' "$repo/scripts/perfbench_golden_digests" |
    while read -r workload want; do
        got="$(python3 "$repo/perfbench/run.py" --workload "$workload" \
            --seed 3 --scale 0.05 --seconds 0.5 --trace 0 |
            sed -n 's/.*, digest \([0-9a-f]*\)$/\1/p')"
        if [ "$got" != "$want" ]; then
            echo "$workload: digest '$got', want $want" >&2
            exit 1
        fi
        echo "$workload: OK"
    done

if [ "$run_sanitize" = 1 ]; then
    echo "== Sanitizer build + tests =="
    cmake -B "$repo/build-check-asan" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DREQOBS_SANITIZE=ON
    cmake --build "$repo/build-check-asan" -j "$jobs"
    ctest --test-dir "$repo/build-check-asan" --output-on-failure -j "$jobs" \
        --timeout 300
    # The chaos suite (fault injection + supervised lifecycle) is where
    # use-after-free and double-teardown bugs live; run it explicitly
    # under sanitizers so a filtered tier-1 run can never skip it.
    echo "== Sanitizer chaos suite =="
    ctest --test-dir "$repo/build-check-asan" --output-on-failure \
        -j "$jobs" -L chaos --timeout 300
    # Same for the control suite: the controller's teardown guard and
    # the sketch's pinned count slab are exactly sanitizer territory.
    echo "== Sanitizer control suite =="
    ctest --test-dir "$repo/build-check-asan" --output-on-failure \
        -j "$jobs" -L control --timeout 300
    # And the sched suite: per-core deques with mid-dispatch cancels and
    # the fault injector's delayed switch-in are lifetime-bug habitat.
    echo "== Sanitizer sched suite =="
    ctest --test-dir "$repo/build-check-asan" --output-on-failure \
        -j "$jobs" -L sched --timeout 300

    # Scheduled callbacks carry no teardown guards: nothing may pump a
    # simulation once its components start being destroyed (DESIGN.md
    # §16). That rule binds every program that builds a simulation, and
    # ctest runs none of the examples or benches, so run the five
    # examples and the nineteen golden-hashed benches here too. The build
    # makes every sanitizer report fatal, so a report is a non-zero exit
    # and stops the script; the benches must also print the golden bytes.
    echo "== Sanitizer examples + golden benches =="
    for ex in quickstart saturation_monitor power_governor blackbox_trace \
        tracelet; do
        "$repo/build-check-asan/examples/$ex" > /dev/null
    done
    mkdir "$tmp/asan"
    for bench in bench_fig1_trace bench_fig2_rps_correlation \
        bench_fig3_send_variance bench_fig4_epoll_duration \
        bench_fig5_loss_tail bench_fault_matrix bench_supervisor \
        bench_runqlat bench_fleet bench_colocation bench_control \
        $remaining_benches; do
        "$repo/build-check-asan/bench/$bench" > "$tmp/asan/$bench"
    done
    (cd "$tmp/asan" &&
        sha256sum -c "$repo/scripts/figure_bench_golden.sha256" \
            "$repo/scripts/chaos_bench_golden.sha256" \
            "$repo/scripts/sched_bench_golden.sha256" \
            "$repo/scripts/fleet_bench_golden.sha256" \
            "$repo/scripts/remaining_bench_golden.sha256")

    # ThreadSanitizer over the worker pool, the only multi-threaded
    # code: its batch hand-off and thread budget (WorkerPoolTest, perf
    # label) and cluster sweeps on it, nested ones included
    # (ClusterBatchTest, fleet label).
    echo "== ThreadSanitizer build + perf/fleet suites =="
    cmake -B "$repo/build-check-tsan" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DREQOBS_SANITIZE=thread
    # Build everything: gtest_discover_tests silently drops unbuilt
    # binaries from the label run, which would hollow out the pass.
    cmake --build "$repo/build-check-tsan" -j "$jobs"
    # The storm and sched suites ride along (their labels regex-match
    # perf), named explicitly so trimming the compound labels can't
    # silently drop them.
    ctest --test-dir "$repo/build-check-tsan" --output-on-failure \
        -j "$jobs" -L 'perf|fleet|storm|sched' --timeout 300
fi

if [ "$run_bench" = 1 ]; then
    # Perf floor gates: bench_perf fails if the native engine's Listing-1
    # speedup over the reference interpreter regresses below 8x (it
    # measures ~11x; the paper target is 10x on an unloaded host), and
    # bench_scale fails if one machine can no longer sustain 1e7
    # syscalls/sec on the native engine through scalar
    # TracepointRegistry::fire, one call per event (its native row runs
    # for at least 1 s of wall time).
    echo "== Host perf report =="
    "$repo/build-check/bench/bench_perf" --json "$repo/BENCH_perf.json" \
        --min-speedup 8
    echo "== Scale report =="
    "$repo/build-check/bench/bench_scale" --json "$repo/BENCH_scale.json" \
        --floor 10000000
    # Closed-loop acceptance: open loop violates, closed loop holds
    # (bench_control exits non-zero if either side misbehaves).
    echo "== Closed-loop control report =="
    "$repo/build-check/bench/bench_control" --json "$repo/BENCH_control.json"
    # Front-door acceptance: under a connection storm the syscall-level
    # signals go blind while the in-kernel front-door-latency probe keeps
    # rank, and the accept-budget closed loop holds the victim's QoS
    # where the open loop violates it (non-zero exit on either failure).
    echo "== Front-door storm report =="
    "$repo/build-check/bench/bench_frontdoor" \
        --json "$repo/BENCH_frontdoor.json"
    # Runqlat acceptance: run-queue latency detects the antagonist onset
    # earlier than Eq. 2 send variance at every ramp rung, and separates
    # CPU saturation from netem degradation (non-zero exit otherwise).
    echo "== Run-queue latency report =="
    "$repo/build-check/bench/bench_runqlat" \
        --json "$repo/BENCH_runqlat.json"
    # End-to-end benchmark smoke: every workload prints every metric,
    # the traced run reproduces the untraced one, no self-check fails.
    echo "== Benchmark smoke test =="
    python3 "$repo/perfbench/smoke_test.py"
fi

echo "== check.sh OK =="
