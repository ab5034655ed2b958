#!/usr/bin/env bash
# CI entry point: every stage the GitHub workflow runs, kept as a script
# so it can be reproduced locally with ./scripts/ci.sh. The workflow
# splits the stages over jobs (.github/workflows/ci.yml): release,
# smoke, throughput, tracepack and cellcache run in one job; asan,
# tsan and lto each run in a job of their own.
#
#   1. Release build (warnings are errors) + full test suite
#   2. Observability smoke: --stats-json / --sample-interval /
#      --trace-out output must parse and carry the expected keys; a
#      --record run (EMTC) and a --trace replay of that recording must
#      report the same metrics as the plain run; --trace on a file
#      that is not EMTC must fail naming the path; unknown flags,
#      out-of-range --jobs/--sampled-sets values, a non-power-of-two
#      --sampled-sets, sweep-only flags on a single run and
#      --trace-categories without --trace-out (or on a sweep) must
#      fail with a usage error
#   3. Throughput smoke: a short policy sweep that prints Minst/s;
#      the numbers are informational — the stage gates only on the
#      bench exiting cleanly and on its JSON artifacts. Regressions
#      are judged by interleaved parent/change runs of the
#      repository benchmark (python3 perfbench/run.py), not here
#   4. trace_pack smoke: pack a synthetic benchmark into an EMTC
#      container, verify its CRCs, prove that verify *fails* on a
#      flipped byte, import the committed ChampSim fixture, and run
#      a 2x2 catalog sweep whose JSON must parse
#   5. Cell-cache smoke: run one 2x2 emissary_sim sweep twice
#      against the same --cache-dir; the second sweep must serve
#      every cell from the cache with metrics equal to the first's
#   6. AddressSanitizer + UndefinedBehaviorSanitizer build + full
#      test suite (a UBSan finding fails the test)
#   7. ThreadSanitizer build + the "threaded" test label
#
# An optional "lto" stage rebuilds Release with EMISSARY_LTO=ON and
# reruns the suite (the GitHub workflow runs it as its own job).
#
# Stages can be selected: ./scripts/ci.sh release smoke throughput
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${CI_JOBS:-$(nproc)}"
STAGES="${*:-release smoke throughput tracepack cellcache asan tsan}"

run_stage() { echo; echo "=== ci: $* ==="; }

configure_build_test() {
    local dir="$1"; shift
    cmake -B "$dir" -S . "$@" >/dev/null
    cmake --build "$dir" -j "$JOBS"
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" "${CTEST_ARGS[@]}"
}

for stage in $STAGES; do
    case "$stage" in
    release)
        run_stage "Release build (-Werror) + tests"
        CTEST_ARGS=()
        configure_build_test build-ci-release \
            -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
        ;;
    smoke)
        run_stage "observability smoke run"
        [ -x build-ci-release/tools/emissary_sim ] ||
            { echo "run the release stage first" >&2; exit 1; }
        out="$(mktemp -d)"
        build-ci-release/tools/emissary_sim \
            --benchmark verilator --policy "EMISSARY" \
            --instructions 200000 \
            --stats-json "$out/run.json" --sample-interval 50000 \
            --trace-out "$out/trace.jsonl" >/dev/null
        build-ci-release/tools/json_check "$out/run.json" \
            metrics.ipc counters.l2.inst_misses \
            samples.interval config.measure_instructions
        # Every JSONL event line must parse too.
        while IFS= read -r line; do
            printf '%s' "$line" >"$out/event.json"
            build-ci-release/tools/json_check "$out/event.json" \
                event cycle
        done < <(head -100 "$out/trace.jsonl")
        # Recording the stream must not change a single metric (the
        # Fig. 4 footprint included), and replaying the recording
        # must reproduce them: the run JSONs' metrics match. The
        # replay names its workload after the container ("emtc:..."),
        # so "benchmark" is the one field it may differ in.
        for run in plain record replay; do
            extra=()
            [ "$run" = record ] && extra=(--record "$out/run.emtc")
            [ "$run" = replay ] && extra=(--trace "$out/run.emtc")
            build-ci-release/tools/emissary_sim \
                --benchmark tomcat --instructions 200000 \
                --stats-json "$out/$run.json" "${extra[@]}" >/dev/null
        done
        python3 - "$out/plain.json" "$out/record.json" \
            "$out/replay.json" <<'EOF'
import json, sys
plain, record, replay = (json.load(open(path))["metrics"]
                         for path in sys.argv[1:4])
assert plain == record, "--record changed the run's metrics"
assert plain["code_footprint_lines"] > 0, "no code footprint"
assert replay.pop("benchmark") == "emtc:" + plain.pop("benchmark")
assert plain == replay, "--trace replay differs from the plain run"
print("smoke: --record and --trace replay metrics equal the plain run's")
EOF
        # --trace reads only EMTC: any other file is rejected, and the
        # error names the path.
        printf 'not a trace' >"$out/garbage.emtc"
        rc=0
        build-ci-release/tools/emissary_sim --trace "$out/garbage.emtc" \
            --instructions 1000 >/dev/null 2>"$out/err.txt" || rc=$?
        [ "$rc" -ne 0 ] && grep -qF "$out/garbage.emtc" "$out/err.txt" ||
            { echo "--trace on a non-EMTC file: expected a failure" \
                  "naming the path (rc=$rc)" >&2; exit 1; }
        # Unknown flags must fail loudly.
        if build-ci-release/tools/emissary_sim --no-such-flag \
            2>/dev/null; then
            echo "unknown flag did not fail" >&2; exit 1
        fi
        # Flags stored as 32-bit unsigned must reject larger values
        # (exit 2, naming the flag) instead of silently wrapping.
        for flag in "--sampled-sets 4294967304" "--jobs 4294967297" \
            "--sampled-sets 3"; do
            rc=0
            # shellcheck disable=SC2086
            build-ci-release/tools/emissary_sim --benchmarks tomcat \
                --policies TPLRU --instructions 1000 $flag \
                >/dev/null 2>"$out/err.txt" || rc=$?
            [ "$rc" -eq 2 ] && grep -q -- "${flag%% *}" "$out/err.txt" ||
                { echo "$flag: expected exit 2 naming the flag" \
                      "(rc=$rc)" >&2; exit 1; }
        done
        # Sweep-only flags on a single run are usage errors (exit 2,
        # naming the flag), not silently ignored.
        for flag in --fused --fast-mode "--sampled-sets 8" "--jobs 2" \
            --progress "--cache-dir $out/cache"; do
            rc=0
            # shellcheck disable=SC2086
            build-ci-release/tools/emissary_sim --benchmark tomcat \
                --instructions 1000 $flag \
                >/dev/null 2>"$out/err.txt" || rc=$?
            [ "$rc" -eq 2 ] && grep -q -- "${flag%% *}" "$out/err.txt" ||
                { echo "$flag on a single run: expected exit 2" \
                      "naming the flag (rc=$rc)" >&2; exit 1; }
        done
        # --trace-categories only filters --trace-out: on a single run
        # without it, or on a sweep, it is a usage error (exit 2,
        # naming the flag), not silently ignored.
        for mode in "--benchmark tomcat" \
            "--benchmarks tomcat --policies TPLRU"; do
            rc=0
            # shellcheck disable=SC2086
            build-ci-release/tools/emissary_sim $mode \
                --instructions 1000 --trace-categories starvation \
                >/dev/null 2>"$out/err.txt" || rc=$?
            [ "$rc" -eq 2 ] &&
                grep -q -- --trace-categories "$out/err.txt" ||
                { echo "--trace-categories with $mode: expected" \
                      "exit 2 naming the flag (rc=$rc)" >&2; exit 1; }
        done
        rm -rf "$out"
        echo "smoke OK"
        ;;
    throughput)
        run_stage "throughput smoke + flight recorder"
        [ -x build-ci-release/bench/bench_fig5_policy_sweep ] ||
            { echo "run the release stage first" >&2; exit 1; }
        # Short window, three workloads, one worker: finishes in a few
        # seconds anywhere. The sweep JSON and the flight-recorder
        # Chrome trace land in ci-artifacts/ (the GitHub workflow
        # uploads the directory).
        art=build-ci-release/ci-artifacts
        mkdir -p "$art"
        EMISSARY_JOBS=1 \
        EMISSARY_BENCHMARKS=tomcat,kafka,verilator \
        EMISSARY_BENCH_INSTRUCTIONS=200000 \
        EMISSARY_BENCH_JSON="$art" \
        EMISSARY_PERF_TRACE="$art/fig5_flight_trace.json" \
            build-ci-release/bench/bench_fig5_policy_sweep \
            >"$art/fig5_smoke.txt"
        grep -E 'throughput \((runs/sec|Minst/s)\)' \
            "$art/fig5_smoke.txt" ||
            { echo "no throughput rows in sweep output" >&2; exit 1; }
        # The flight trace must be valid JSON, and the sweep JSON must
        # carry the phase totals, cell histogram and provenance.
        build-ci-release/tools/json_check \
            "$art/fig5_flight_trace.json"
        build-ci-release/tools/json_check \
            "$art/fig5_policy_sweep_sweep.json" \
            timing.phases.measure_seconds \
            timing.cell_wall_histogram.total \
            provenance.git_sha
        # The same short sweep fused: one trace pass per workload
        # drives all policy lanes. The sweep JSON must say so.
        mkdir -p "$art/fused"
        EMISSARY_FUSED=1 \
        EMISSARY_JOBS=1 \
        EMISSARY_BENCHMARKS=tomcat,kafka,verilator \
        EMISSARY_BENCH_INSTRUCTIONS=200000 \
        EMISSARY_BENCH_JSON="$art/fused" \
            build-ci-release/bench/bench_fig5_policy_sweep \
            >"$art/fig5_fused_smoke.txt"
        grep -q 'scheduling: fused' "$art/fig5_fused_smoke.txt" ||
            { echo "fused sweep did not report fused scheduling" >&2
              exit 1; }
        build-ci-release/tools/json_check \
            "$art/fused/fig5_policy_sweep_sweep.json" \
            mode timing.phases.measure_seconds provenance.git_sha
        echo "throughput smoke OK"
        ;;
    tracepack)
        run_stage "trace_pack + catalog smoke"
        pack=build-ci-release/tools/trace_pack
        [ -x "$pack" ] ||
            { echo "run the release stage first" >&2; exit 1; }
        out="$(mktemp -d)"
        # Pack a synthetic benchmark and check the container.
        "$pack" pack "$out/tomcat.emtc" \
            --benchmark tomcat --records 100000
        "$pack" info "$out/tomcat.emtc" >/dev/null
        "$pack" verify "$out/tomcat.emtc"
        # Corruption must not verify: flip one payload byte.
        cp "$out/tomcat.emtc" "$out/bad.emtc"
        printf '\xff' |
            dd of="$out/bad.emtc" bs=1 seek=2000 conv=notrunc \
                status=none
        if "$pack" verify "$out/bad.emtc" 2>/dev/null; then
            echo "verify accepted a corrupt container" >&2; exit 1
        fi
        # The committed ChampSim fixture must import.
        "$pack" import-champsim tests/data/tiny.champsim \
            "$out/tiny.emtc" --name tiny
        "$pack" verify "$out/tiny.emtc"
        # A catalog sweep over the packed trace + a live synthetic
        # workload must produce parseable sweep JSON.
        cat >"$out/catalog.json" <<EOF
{"schema": "emissary.catalog.v1",
 "workloads": [
   {"name": "kafka", "synthetic": {"profile": "kafka"}},
   {"name": "tomcat.packed", "trace": {"path": "tomcat.emtc"}}]}
EOF
        build-ci-release/tools/emissary_sim \
            --catalog "$out/catalog.json" \
            --policies "TPLRU,EMISSARY" \
            --instructions 200000 \
            --stats-json "$out/sweep.json" >/dev/null
        build-ci-release/tools/json_check "$out/sweep.json" \
            schema runs
        rm -rf "$out"
        echo "trace_pack smoke OK"
        ;;
    cellcache)
        run_stage "cell-cache smoke (cold vs warm --cache-dir sweep)"
        sim=build-ci-release/tools/emissary_sim
        [ -x "$sim" ] ||
            { echo "run the release stage first" >&2; exit 1; }
        out="$(mktemp -d)"
        for pass in cold warm; do
            "$sim" --benchmarks tomcat,kafka \
                --policies "TPLRU,EMISSARY" --instructions 200000 \
                --cache-dir "$out/cache" \
                --stats-json "$out/$pass.json" >/dev/null
        done
        build-ci-release/tools/json_check "$out/warm.json" \
            schema runs provenance.git_sha
        # Every warm cell must be served from the cache, and its
        # identity and metrics must equal the cold run's (timing
        # fields differ by nature and are not compared).
        python3 - "$out/cold.json" "$out/warm.json" <<'EOF'
import json, sys
cold, warm = (json.load(open(path)) for path in sys.argv[1:3])
assert len(cold["runs"]) == len(warm["runs"]) == 4, "expected 4 cells"
for c, w in zip(cold["runs"], warm["runs"]):
    cell = c["benchmark"] + " / " + c["policy"]
    assert c["execution"] == "sequential", cell + ": cold not simulated"
    assert w["execution"] == "cached", cell + ": warm not cached"
    for key in ("benchmark", "policy", "config", "metrics"):
        assert c[key] == w[key], cell + ": " + key + " differs"
print("cellcache: 4 warm cells cached, metrics identical")
EOF
        rm -rf "$out"
        echo "cell-cache smoke OK"
        ;;
    lto)
        run_stage "Release + LTO build + tests"
        CTEST_ARGS=()
        configure_build_test build-ci-lto \
            -DCMAKE_BUILD_TYPE=Release \
            -DEMISSARY_LTO=ON
        ;;
    asan)
        run_stage "AddressSanitizer + UBSan build + tests"
        CTEST_ARGS=()
        configure_build_test build-ci-asan \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DEMISSARY_SANITIZE=address,undefined
        ;;
    tsan)
        run_stage "ThreadSanitizer build + threaded tests"
        CTEST_ARGS=(-L threaded)
        configure_build_test build-ci-tsan \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DEMISSARY_SANITIZE=thread
        ;;
    *)
        echo "unknown stage '$stage'" >&2; exit 1
        ;;
    esac
done

echo
echo "=== ci: all stages passed ==="
