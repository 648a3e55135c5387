#!/usr/bin/env bash
# Repository check gate: the tier-1 build + full test suite, a smoke run of
# the substrate micro-benchmarks (which carry the event kernel's
# zero-allocation probe, including the telemetry-handle overhead bench), the
# telemetry demo, the export smokes of the fault, checkpoint, trace,
# serving and rack benches and of simulate --trace (whose exported bytes
# must hash to tests/golden/exports.sha256), a check that a bench CLI
# rejects an unknown flag before doing any work, then the golden gate:
# the committed CSVs at the repository root are regenerated in a temporary
# directory and must match byte for byte. The benchmark's self-tests come next: every workload's
# seed-2025 digest of simulated results must equal its pin, and traced and
# untraced runs must agree, so a change meant to leave behaviour alone is
# checked against all four benchmark workloads too. Sanitizer passes follow: ThreadSanitizer over the suites
# that start threads (the parallel sweep runner and its users),
# AddressSanitizer and UndefinedBehaviorSanitizer over the event-kernel,
# telemetry, fault, checkpoint, serving and cluster-switch tests (the slab queue and
# InlineEvent do placement-new lifetime management by hand; the registry
# hands out long-lived cell pointers). Last, the coverage gate. Run from the
# repository root:
#
#   scripts/check.sh               # everything
#   SKIP_TSAN=1 scripts/check.sh   # skip the TSan pass
#   SKIP_ASAN=1 scripts/check.sh   # skip the ASan pass
#   SKIP_UBSAN=1 scripts/check.sh  # skip the UBSan pass
#   SKIP_COV=1 scripts/check.sh    # skip the coverage gate
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: build + ctest =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== substrate micro-bench smoke (zero-alloc probe) =="
cmake --build build -j "$JOBS" --target micro_substrate
./build/bench/micro_substrate \
  --benchmark_filter='BM_EventQueueScheduleAndPop|BM_SimulatorEventRate|BM_MetricsOverhead|BM_PhaseAccountingOverhead' \
  --benchmark_min_time=0.01 --benchmark_format=json \
  >build/micro_substrate_smoke.json
# The kernel's zero-allocation contract: every steady-state probe reads 0.
python3 - build/micro_substrate_smoke.json <<'PY'
import json, sys
runs = json.load(open(sys.argv[1]))["benchmarks"]
bad = [r["name"] for r in runs if r.get("allocs_per_event", 1) != 0]
if not runs or bad:
    sys.exit("allocs_per_event is not 0 for: %s" % (bad or "no benchmark ran"))
print("allocs_per_event == 0 for %d benchmarks" % len(runs))
PY

echo "== telemetry demo smoke (dashboard + exporters) =="
./build/examples/telemetry_demo --metrics-out build/telemetry_demo_smoke \
  >/dev/null
test -s build/telemetry_demo_smoke.prom
test -s build/telemetry_demo_smoke.jsonl
test -s build/telemetry_demo_smoke.report.json

echo "== fault-injection smoke (recovery metrics in exports) =="
# The fault smokes run from build/ so the CSV each writes cannot clobber
# the committed ext_fault_resilience.csv at the repo root.
(cd build && ./bench/ext_fault_resilience --apps 12 --seqs 1 \
  --metrics-out fault_smoke >/dev/null)
grep -q 'vs_recovery_mttr_ms' build/fault_smoke.prom
grep -q 'vs_faults_injected_total' build/fault_smoke.prom
grep -q 'vs_board_available' build/fault_smoke.prom

echo "== checkpoint smoke (snapshot metrics in exports) =="
(cd build && ./bench/ext_fault_resilience --apps 12 --seqs 1 \
  --recovery checkpoint --metrics-out ckpt_smoke >/dev/null)
grep -q 'vs_ckpt_snapshots_total' build/ckpt_smoke.prom
grep -q 'vs_ckpt_bytes_total' build/ckpt_smoke.prom
grep -q 'vs_recovery_checkpoint_restored_apps_total' build/ckpt_smoke.prom

echo "== delta checkpoint + pre-copy smoke (dirty/round metrics in exports) =="
# The telemetry replay runs the full PR 7 configuration (dirty-delta
# checkpoints + iterative pre-copy), so its export must carry the
# delta-only and migration instruments.
grep -q 'vs_ckpt_deltas_total' build/ckpt_smoke.prom
grep -q 'vs_ckpt_dirty_bytes_total' build/ckpt_smoke.prom
grep -q 'reason="clean"' build/ckpt_smoke.prom
grep -q 'reason="empty"' build/ckpt_smoke.prom
grep -q 'vs_migration_rounds_total' build/ckpt_smoke.prom
grep -q 'vs_migration_downtime_ms' build/ckpt_smoke.prom

echo "== causal trace + journal smoke (flow events, phases, journal) =="
# A faulted traced replay must emit cross-board flow events (crash ->
# evacuation -> readmission arrows), the phase histograms, and a
# structured journal with the crash recorded.
# The journal gets its own name: trace_smoke.jsonl is the time series
# --metrics-out writes.
(cd build && ./bench/ext_fault_resilience --apps 12 --seqs 1 \
  --metrics-out trace_smoke --trace-out trace_smoke.json \
  --journal-out trace_smoke.journal.jsonl >/dev/null)
grep -q '"ph":"s"' build/trace_smoke.json
grep -q '"ph":"f"' build/trace_smoke.json
grep -q 'vs_app_phase_ms' build/trace_smoke.prom
grep -q '"phases": \[' build/trace_smoke.report.json
grep -q '"event":"crash"' build/trace_smoke.journal.jsonl
grep -q '"event":"readmit"' build/trace_smoke.journal.jsonl
# Its flow points land on round millisecond values (300000 us): every ts
# and dur must still be a plain decimal, never exponent notation.
if grep -qE '"(ts|dur)":-?[0-9.]*[eE]' build/trace_smoke.json; then
  echo "ext_fault_resilience --trace-out wrote an exponent-notation ts or dur" >&2
  exit 1
fi
# The sweep's worker count must never reach an export: the same replay on
# one worker must write the same trace, journal and Prometheus file.
(cd build && VS_JOBS=1 ./bench/ext_fault_resilience --apps 12 --seqs 1 \
  --metrics-out trace_smoke_j1 --trace-out trace_smoke_j1.json \
  --journal-out trace_smoke_j1.journal.jsonl >/dev/null)
cmp build/trace_smoke.json build/trace_smoke_j1.json
cmp build/trace_smoke.journal.jsonl build/trace_smoke_j1.journal.jsonl
cmp build/trace_smoke.prom build/trace_smoke_j1.prom

echo "== single-board Chrome trace smoke (plain-decimal ts/dur) =="
# simulate --trace exports through the trace hub like every bench; its
# microsecond timestamps must be plain decimals, never exponent notation.
./build/examples/simulate --trace build/simulate_smoke.json >/dev/null
grep -q '"ph":"X"' build/simulate_smoke.json
if grep -qE '"(ts|dur)":-?[0-9.]*[eE]' build/simulate_smoke.json; then
  echo "simulate --trace wrote an exponent-notation ts or dur" >&2
  exit 1
fi

echo "== multi-tenant serving smoke (vs_tenant_* metrics in exports) =="
# Run from build/ so the CSV the smoke writes cannot clobber the committed
# ext_multitenant.csv at the repo root.
(cd build && ./bench/ext_multitenant --boards 8 --rate 1.0 --horizon 10 \
  --jobs 1 --metrics-out mt_smoke >/dev/null)
grep -q 'vs_tenant_admitted_total' build/mt_smoke.prom
grep -q 'vs_tenant_slo_miss_total' build/mt_smoke.prom
grep -q 'vs_tenant_response_ms' build/mt_smoke.prom

echo "== export golden gate: smoke exports match their recorded hashes =="
# Every exporter is a pure function of the run it exports: the causal-trace
# smoke's Chrome trace, journal and telemetry files and the serving smoke's
# telemetry files must hash to the values recorded in tests/golden.
(cd build && sha256sum --check --quiet ../tests/golden/exports.sha256)

echo "== bench CLIs: unknown flags rejected, --help prints usage =="
# Both exit before any work, so neither may leave a file behind.
mt_bench="$(pwd)/build/bench/ext_multitenant"
cli_dir="$(mktemp -d)"
(cd "$cli_dir" && "$mt_bench" --help) | grep -q '^usage: ext_multitenant '
status=0
(cd "$cli_dir" && "$mt_bench" --bogus >/dev/null 2>&1) || status=$?
if [[ "$status" != 2 || -n "$(ls -A "$cli_dir")" ]]; then
  echo "ext_multitenant --bogus exited $status (want 2)," \
    "files left: $(ls -A "$cli_dir")" >&2
  exit 1
fi
rmdir "$cli_dir"

echo "== rack chaos smoke (correlated failures, rack metrics in exports) =="
# The rack sweep writes its CSV into the working directory; run from
# build/ so it cannot clobber a committed file. The export must carry the
# rack-event counter (registered only when domains are set).
(cd build && ./bench/ext_fault_resilience --racks 2 --apps 12 --seqs 1 \
  --metrics-out rack_smoke >/dev/null)
grep -q 'vs_rack_events_total' build/rack_smoke.prom
grep -q 'vs_recovery_spare_exhausted_total' build/rack_smoke.prom

echo "== golden gate: committed CSVs regenerate byte for byte =="
# Every bench is a pure function of its seed, so a run at default arguments
# must reproduce the CSVs committed at the repo root. --racks 2 is the
# argument that produced ext_fault_resilience_rack.csv.
golden_dir="$(mktemp -d)"
trap 'rm -rf "$golden_dir"' EXIT
root="$(pwd)"
(cd "$golden_dir" &&
  for bench in fig5_response_time fig6_tail_latency fig7_utilization \
               fig8_switching ext_fault_resilience ext_multitenant; do
    "$root/build/bench/$bench" >/dev/null
  done &&
  "$root/build/bench/ext_fault_resilience" --racks 2 >/dev/null)
for csv in fig5_response_time fig6_tail_latency fig7_utilization \
           fig8_downtime fig8_dswitch_trace fig8_summary \
           ext_fault_resilience ext_fault_resilience_rack ext_multitenant; do
  cmp "$golden_dir/$csv.csv" "$csv.csv"
done

echo "== benchmark self-tests: pinned digests, traced == untraced =="
python3 perfbench/test_perfbench.py

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== ThreadSanitizer: sweep runner and the suites that use it =="
  cmake -B build-tsan -S . -DVS_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" --target versaslot_tests
  # halt_on_error so any reported race fails the gate loudly. The filter
  # lists every suite that starts threads.
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/versaslot_tests \
    --gtest_filter='ThreadPool.*:SweepDeterminism.*:SweepEdgeCases.*:FaultDeterminism.SerialAndParallelSweepAgreeUnderFaults:CheckpointDeterminism.*:RackGolden.*'
fi

# Event-kernel (with the lazy arrival stream and the device FIFO), app-table
# retirement, telemetry (with the buffered export writer), fault, checkpoint, serving and cluster-switch
# suites: the memory-safety and undefined-behaviour passes share one filter.
SANITIZE_FILTER='InlineEvent.*:EventQueue*:EventStream.*:Fifo.*:Simulator.*:Core.*:AppRetirement.*:MetricsRegistry.*:MetricsHandles.*:Histogram.*:PrometheusExport.*:JsonlExport.*:RunReportExport.*:JsonEscape.*:ExportReference.*:ExportWriter.*:Sampler.*:Telemetry*:TraceRecorder.*:TraceHub.*:TraceExport.*:RunJournal.*:PrometheusEscaping.*:PhaseAccounting.*:FaultScenario.*:FaultPlane.*:FaultPlaneValidation.*:AuroraFlap.*:SlotSeu.*:BoardCrash.*:FaultRecovery.*:FaultDeterminism.*:RackEvents.*:RackGolden.*:*ChaosCampaign*:SparePoolExhausted.*:Checkpoint*:DirtyMapUnit.*:Precopy*:ArrivalProcess.*:ServeAdmission.*:ServePlane.*:Cluster.*:ClusterGolden.*:*SwitchLanding.*'

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "== AddressSanitizer: event kernel + telemetry =="
  cmake -B build-asan -S . -DVS_SANITIZE=address
  cmake --build build-asan -j "$JOBS" --target versaslot_tests
  ./build-asan/tests/versaslot_tests --gtest_filter="$SANITIZE_FILTER"
fi

if [[ "${SKIP_UBSAN:-0}" != "1" ]]; then
  echo "== UndefinedBehaviorSanitizer: event kernel + telemetry =="
  cmake -B build-ubsan -S . -DVS_SANITIZE=undefined
  cmake --build build-ubsan -j "$JOBS" --target versaslot_tests
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ./build-ubsan/tests/versaslot_tests --gtest_filter="$SANITIZE_FILTER"
fi

if [[ "${SKIP_COV:-0}" != "1" ]]; then
  echo "== coverage gate: src/cluster + src/faults + src/runtime + src/sim + src/serve =="
  scripts/coverage.sh
fi

echo "== all checks passed =="
