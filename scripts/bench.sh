#!/bin/sh
# Benchmark the training engine, the scenario matrix and the refresh
# engine, and record machine-readable baselines. Per-interval scoring
# and ingest cost is measured by the repository benchmark
# (BENCHMARK.json, bench/), with repeated runs and spread.
#
# Every BENCH_*.json records the runner's runtime.NumCPU() as "cpus" so
# a baseline declares the parallelism it was measured under. Speedup
# rows that compare a parallel engine against its serial twin
# (train_speedup, pca_speedup) are SKIPPED — not
# recorded as 1.0x — on single-CPU runners, where the comparison is
# meaningless by construction.
#
# Training: runs the training-engine benchmarks (core.Train serial vs
# parallel, pca.Train serial vs parallel, trace decode per-record vs
# ReadBatch, and the internal/train steady-state EM iteration) and
# writes BENCH_training.json. Bars: the EM iteration must allocate 0
# times per op on every machine; core.Train parallel speedup >= 2.5 is
# enforced only on multi-core runners (serial and parallel are
# bit-identical, so a single-core machine legitimately shows 1.0x).
#
# Scenarios: runs the full scenario × detector matrix at medium scale
# (mhmreport -exp scenarios) and writes BENCH_scenarios.json — the
# repo's detection-quality baseline (per-scenario AUC, detection latency
# and false-positive rates). Bar: on the stealthy scenarios (mimicry,
# slow-drift) the best ensemble AUC must not fall below the best single
# detector — otherwise the fusion layer is dead weight.
#
# Refresh: benchmarks the online model-refresh engine's Observe hot
# path, then runs experiment A14 (mhmreport -exp refresh) — one
# steady-state incremental refresh against the full retrain it replaces,
# detection-quality parity on a shared eval set, and a mini fleet run
# with the refresh loop hot-swapping models — and writes
# BENCH_refresh.json. Bars: Observe must allocate 0 times per op,
# refresh speedup >= 10x, AUC gap <= 0.02, dropped intervals == 0.
#
# Usage: scripts/bench.sh [count] [benchtime]
#   count     repetitions per benchmark for the median (default 3)
#   benchtime go test -benchtime value (default 2s; use 10x for a smoke run)
set -eu

cd "$(dirname "$0")/.."

COUNT="${1:-3}"
BENCHTIME="${2:-2s}"

# The machine's processor count, NOT go env GOMAXPROCS (which reports
# the environment override, not the hardware).
CPUS="$(go run ./scripts/numcpu)"
case "$CPUS" in ''|*[!0-9]*) CPUS=1 ;; esac

# ---------------------------------------------------------------- training

TRAIN_OUT="BENCH_training.json"

TRAIN_RAW="$(go test -run '^$' \
  -bench 'CoreTrainSerial$|CoreTrainParallel$|PCATrain$|PCATrainParallel$|TraceReadRecord$|TraceReadBatch$' \
  -benchmem -benchtime="$BENCHTIME" -count="$COUNT" .)"
EM_RAW="$(go test -run '^$' -bench 'TrainEM$' \
  -benchmem -benchtime="$BENCHTIME" -count="$COUNT" ./internal/train)"

printf '%s\n%s\n' "$TRAIN_RAW" "$EM_RAW"

printf '%s\n%s\n' "$TRAIN_RAW" "$EM_RAW" | awk -v out="$TRAIN_OUT" -v cpus="$CPUS" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    ns[name] = ns[name] " " $3
    allocs[name] = $7                  # identical across reps
    n[name]++
}
function median(list, cnt,    arr, i, j, tmp, m) {
    m = split(list, arr, " ")
    for (i = 1; i < m; i++)
        for (j = i + 1; j <= m; j++)
            if (arr[j] + 0 < arr[i] + 0) { tmp = arr[i]; arr[i] = arr[j]; arr[j] = tmp }
    if (m % 2) return arr[(m + 1) / 2] + 0
    return (arr[m / 2] + arr[m / 2 + 1]) / 2
}
function field(key, bench,    v) {
    if (!(bench in ns)) { printf "bench.sh: missing benchmark %s\n", bench > "/dev/stderr"; exit 1 }
    v = median(ns[bench], n[bench])
    printf "  \"%s\": {\"ns_per_op\": %.1f, \"allocs_per_op\": %d},\n", key, v, allocs[bench] + 0 >> out
    return v
}
END {
    printf "{\n" > out
    printf "  \"cpus\": %d,\n", cpus >> out
    serial   = field("core_train_serial",   "CoreTrainSerial")
    parallel = field("core_train_parallel", "CoreTrainParallel")
    pcas     = field("pca_train_serial",    "PCATrain")
    pcap     = field("pca_train_parallel",  "PCATrainParallel")
    record   = field("trace_read_record",   "TraceReadRecord")
    batch    = field("trace_read_batch",    "TraceReadBatch")
    em       = field("em_iteration",        "TrainEM")
    if (cpus > 1) {
        printf "  \"train_speedup\": %.2f,\n", serial / parallel >> out
        printf "  \"pca_speedup\": %.2f,\n", pcas / pcap >> out
    } else {
        printf "bench.sh: single-core runner; train_speedup/pca_speedup rows skipped\n" > "/dev/stderr"
    }
    printf "  \"ingest_speedup\": %.2f\n", record / batch >> out
    printf "}\n" >> out
    if (allocs["TrainEM"] + 0 != 0) {
        printf "bench.sh: EM iteration allocates %d times per op, want 0\n", allocs["TrainEM"] + 0 > "/dev/stderr"
        exit 1
    }
    if (cpus > 1 && serial / parallel < 2.5) {
        printf "bench.sh: core.Train parallel speedup %.2fx below the 2.5x bar on %d cpus\n", serial / parallel, cpus > "/dev/stderr"
        exit 1
    }
    if (cpus <= 1)
        printf "bench.sh: single-core runner; 2.5x train speedup bar skipped (serial==parallel bit-identical)\n" > "/dev/stderr"
}
'

echo
echo "wrote $TRAIN_OUT:"
cat "$TRAIN_OUT"

# --------------------------------------------------------------- scenarios

SCEN_OUT="BENCH_scenarios.json"
go run ./cmd/mhmreport -exp scenarios -scale medium -seed 1 -json "$SCEN_OUT"

awk '
/"scenario":/ { gsub(/[",]/, "", $2); scen = $2 }
/"detector":/ { gsub(/[",]/, "", $2); det = $2 }
/"auc":/ {
    gsub(/,/, "", $2)
    auc[scen "/" det] = $2 + 0
}
END {
    fail = 0
    n = split("mimicry slow-drift", stealthy, " ")
    for (i = 1; i <= n; i++) {
        s = stealthy[i]
        single = auc[s "/mhm"]
        if (auc[s "/syscall"] > single) single = auc[s "/syscall"]
        ens = auc[s "/ensemble-max"]
        if (auc[s "/ensemble-wsum"] > ens) ens = auc[s "/ensemble-wsum"]
        printf "scenarios: %-11s best single AUC %.3f, best ensemble AUC %.3f\n", s, single, ens
        if (ens < single) {
            printf "bench.sh: ensemble AUC %.3f below best single %.3f on %s\n", ens, single, s > "/dev/stderr"
            fail = 1
        }
    }
    exit fail
}
' "$SCEN_OUT"

echo
echo "wrote $SCEN_OUT"

# ----------------------------------------------------------------- refresh

REFRESH_OUT="BENCH_refresh.json"

REFRESH_RAW="$(go test -run '^$' -bench 'CenteredObserve$' \
  -benchmem -benchtime="$BENCHTIME" -count="$COUNT" ./internal/refresh)"

printf '%s\n' "$REFRESH_RAW"

printf '%s\n' "$REFRESH_RAW" | awk '
/^BenchmarkCenteredObserve/ {
    found = 1
    if ($7 + 0 != 0) {
        printf "bench.sh: refresh Observe allocates %d times per op, want 0\n", $7 + 0 > "/dev/stderr"
        exit 1
    }
}
END {
    if (!found) {
        print "bench.sh: missing BenchmarkCenteredObserve" > "/dev/stderr"
        exit 1
    }
}
'

go run ./cmd/mhmreport -exp refresh -seed 1 -json "$REFRESH_OUT"

awk '
/"speedup":/           { gsub(/,/, "", $2); speedup = $2 + 0 }
/"auc_gap":/           { gsub(/,/, "", $2); gap = $2 + 0 }
/"dropped_intervals":/ { gsub(/,/, "", $2); dropped = $2 + 0 }
END {
    fail = 0
    if (speedup < 10) {
        printf "bench.sh: refresh speedup %.2fx below the 10x bar\n", speedup > "/dev/stderr"
        fail = 1
    }
    if (gap > 0.02) {
        printf "bench.sh: refreshed-vs-retrained AUC gap %.4f above the 0.02 slack\n", gap > "/dev/stderr"
        fail = 1
    }
    if (dropped != 0) {
        printf "bench.sh: refresh loop dropped %d intervals across hot swaps, want 0\n", dropped > "/dev/stderr"
        fail = 1
    }
    exit fail
}
' "$REFRESH_OUT"

echo
echo "wrote $REFRESH_OUT:"
cat "$REFRESH_OUT"
