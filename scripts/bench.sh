#!/bin/sh
# Benchmark the scoring and training engines and record machine-readable
# baselines.
#
# Every BENCH_*.json records the runner's runtime.NumCPU() as "cpus" so
# a baseline declares the parallelism it was measured under. Speedup
# rows that compare a parallel engine against its serial twin
# (train_speedup, pca_speedup) are SKIPPED — not
# recorded as 1.0x — on single-CPU runners, where the comparison is
# meaningless by construction.
#
# Scoring: runs the two scoring-path benchmarks (single-vector analysis
# loop, batched ScoreBatch at B=64) several times, takes the median
# ns/op of each, and writes BENCH_scoring.json at the repo root with
# the derived batch-vs-single speedup. Bar: batch_speedup >= 2.
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
# Fleet: runs the deterministic fleet simulator (cmd/mhmfleet) at 1k,
# 10k and 100k streams — a capacity-sized nominal run and an overloaded
# run per scale — and writes BENCH_fleet.json (streams/sec, virtual p99
# interval latency, virtual p99 alarm-delivery latency, shed counts).
# Bars: the nominal run must shed nothing (shedding engages only above
# configured capacity) and the overloaded run must shed something.
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
OUT="BENCH_scoring.json"

# The machine's processor count, NOT go env GOMAXPROCS (which reports
# the environment override, not the hardware).
CPUS="$(go run ./scripts/numcpu)"
case "$CPUS" in ''|*[!0-9]*) CPUS=1 ;; esac

RAW="$(go test -run '^$' \
  -bench 'AnalysisTime_L1472_Lp9_J5$|ScoreBatch$' \
  -benchmem -benchtime="$BENCHTIME" -count="$COUNT" .)"

printf '%s\n' "$RAW"

printf '%s\n' "$RAW" | awk -v out="$OUT" -v cpus="$CPUS" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    ns[name] = ns[name] " " $3
    allocs[name] = $7                  # identical across reps (pinned to 0)
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
    single = field("single",  "AnalysisTime_L1472_Lp9_J5")
    batch  = field("batch64", "ScoreBatch")
    printf "  \"batch_speedup\": %.2f\n", single / batch >> out
    printf "}\n" >> out
    if (single / batch < 2.0) {
        printf "bench.sh: batch speedup %.2fx below the 2x bar\n", single / batch > "/dev/stderr"
        exit 1
    }
}
'

echo
echo "wrote $OUT:"
cat "$OUT"

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

# ----------------------------------------------------------------- kernels
#
# Runtime-dispatched SIMD kernel baselines: the blocked B=64 panel
# product under the widest kernel the CPU offers AND under
# GODEBUG=cpu.avx2=off (the SSE2/compaction fallback), the sparse
# run-length scoring path, and the fused zero-copy ingest path
# (trace.ReadBatch -> memometer.SnoopBatch -> sparse collect ->
# ScoreSparse). Bars: the fused path must report 0 allocs/op, and on
# an AVX2 machine the dispatched batch kernel must beat the recorded
# pre-dispatch SSE2 baseline by >= 3x.

KERN_OUT="BENCH_kernels.json"

# The blocked SSE2 batch-64 ns/op this repo recorded before runtime
# dispatch existed (BENCH_scoring.json history, cpus:1 runner). Pinned,
# not remeasured: it is the fixed yardstick the AVX2 bar compares to.
SSE2_BASELINE_NS=2638

KERNELS="$(go run ./scripts/kernelname)"
SCORE_KERNEL="${KERNELS% *}"
TRAIN_KERNEL="${KERNELS#* }"
OFF_KERNELS="$(GODEBUG=cpu.avx2=off go run ./scripts/kernelname)"
OFF_SCORE_KERNEL="${OFF_KERNELS% *}"

KERN_RAW="$(go test -run '^$' -bench 'ScoreBatch$|ScoreSparse$|FusedTraceScore$' \
  -benchmem -benchtime="$BENCHTIME" -count="$COUNT" .)"
KERN_OFF_RAW="$(GODEBUG=cpu.avx2=off go test -run '^$' -bench 'ScoreBatch$' \
  -benchmem -benchtime="$BENCHTIME" -count="$COUNT" . | sed 's/^BenchmarkScoreBatch/BenchmarkScoreBatchOff/')"

printf '%s\n%s\n' "$KERN_RAW" "$KERN_OFF_RAW"

printf '%s\n%s\n' "$KERN_RAW" "$KERN_OFF_RAW" | awk -v out="$KERN_OUT" -v cpus="$CPUS" \
    -v score_kernel="$SCORE_KERNEL" -v train_kernel="$TRAIN_KERNEL" \
    -v off_kernel="$OFF_SCORE_KERNEL" -v baseline="$SSE2_BASELINE_NS" '
# Benchmark lines carry a variable column set (ReportMetric adds
# bytes/interval on the fused row), so collect every value/unit pair.
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    for (i = 3; i < NF; i += 2)
        vals[name SUBSEP $(i+1)] = vals[name SUBSEP $(i+1)] " " ($i + 0)
}
function median(list,    arr, i, j, tmp, m) {
    m = split(list, arr, " ")
    if (!m) { printf "bench.sh: missing kernel benchmark metric\n" > "/dev/stderr"; exit 1 }
    for (i = 1; i < m; i++)
        for (j = i + 1; j <= m; j++)
            if (arr[j] + 0 < arr[i] + 0) { tmp = arr[i]; arr[i] = arr[j]; arr[j] = tmp }
    if (m % 2) return arr[(m + 1) / 2] + 0
    return (arr[m / 2] + arr[m / 2 + 1]) / 2
}
function med(bench, unit) {
    if (!((bench SUBSEP unit) in vals)) {
        printf "bench.sh: missing %s %s\n", bench, unit > "/dev/stderr"; exit 1
    }
    return median(vals[bench SUBSEP unit])
}
END {
    batch      = med("ScoreBatch",      "ns/op")
    batchoff   = med("ScoreBatchOff",   "ns/op")
    sparse     = med("ScoreSparse",     "ns/op")
    fusedns    = med("FusedTraceScore", "ns/op")
    fusedbytes = med("FusedTraceScore", "bytes/interval")
    fusedalloc = med("FusedTraceScore", "allocs/op")
    speedup = baseline / batch
    printf "{\n" > out
    printf "  \"cpus\": %d,\n", cpus >> out
    printf "  \"score_kernel\": \"%s\",\n", score_kernel >> out
    printf "  \"train_kernel\": \"%s\",\n", train_kernel >> out
    printf "  \"sse2_batch64_baseline_ns\": %.1f,\n", baseline >> out
    printf "  \"batch64\": {\"ns_per_op\": %.1f, \"allocs_per_op\": %d},\n", batch, med("ScoreBatch", "allocs/op") >> out
    printf "  \"batch64_avx2_off\": {\"kernel\": \"%s\", \"ns_per_op\": %.1f, \"allocs_per_op\": %d},\n", off_kernel, batchoff, med("ScoreBatchOff", "allocs/op") >> out
    printf "  \"sparse\": {\"ns_per_op\": %.1f, \"allocs_per_op\": %d},\n", sparse, med("ScoreSparse", "allocs/op") >> out
    printf "  \"fused\": {\"ns_per_interval\": %.1f, \"bytes_per_interval\": %.1f, \"allocs_per_op\": %d},\n", fusedns, fusedbytes, fusedalloc >> out
    printf "  \"batch_speedup_vs_sse2_baseline\": %.2f\n", speedup >> out
    printf "}\n" >> out
    if (fusedalloc + 0 != 0) {
        printf "bench.sh: fused path allocates %d times per op, want 0\n", fusedalloc > "/dev/stderr"
        exit 1
    }
    if (score_kernel == "avx2" && speedup < 3.0) {
        printf "bench.sh: dispatched batch kernel %.2fx over the recorded SSE2 baseline, below the 3x bar\n", speedup > "/dev/stderr"
        exit 1
    }
    if (score_kernel != "avx2")
        printf "bench.sh: score kernel is %s, not avx2; 3x-vs-SSE2 bar skipped\n", score_kernel > "/dev/stderr"
}
'

echo
echo "wrote $KERN_OUT:"
cat "$KERN_OUT"

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

# ------------------------------------------------------------------- fleet

FLEET_OUT="BENCH_fleet.json"

# Shard the fleet to nominal capacity: one shard serves
# interval/service = 10ms/50µs = 200 streams, halved for headroom.
fleet_run() { # scale shards extra_flags...
    _scale="$1"; _shards="$2"; shift 2
    go run ./cmd/mhmfleet -json -streams "$_scale" -shards "$_shards" \
        -seed 1 -horizon 300 -anomaly-frac 0.01 "$@"
}

printf '{\n  "cpus": %d,\n  "scales": [\n' "$CPUS" > "$FLEET_OUT"
FIRST=1
FLEET_FAIL=0
for SCALE in 1000 10000 100000; do
    SHARDS=$((SCALE / 100))
    [ "$SHARDS" -lt 4 ] && SHARDS=4
    NOMINAL="$(fleet_run "$SCALE" "$SHARDS")"
    OVERLOAD="$(fleet_run "$SCALE" "$SHARDS" -overload 3)"
    [ "$FIRST" = 1 ] || printf ',\n' >> "$FLEET_OUT"
    FIRST=0
    printf '%s\n%s\n' "$NOMINAL" "$OVERLOAD" | awk -v scale="$SCALE" -v shards="$SHARDS" '
    BEGIN { r = 0 }   # record 0 = nominal, record 1 = overload
    function grab(line,    v) { v = line; gsub(/[^0-9.eE+-]/, "", v); return v + 0 }
    /"shed":/                      { shed[r] = grab($2) }
    /"streams_per_sec":/           { sps[r] = grab($2) }
    /"intervals_per_sec":/         { ips[r] = grab($2) }
    /"p99_interval_micros":/       { p99[r] = grab($2) }
    /"p99_alarm_delivery_micros":/ { del[r] = grab($2) }
    /^}/                           { r++ }
    END {
        printf "    {\"streams\": %d, \"shards\": %d,\n", scale, shards
        printf "     \"nominal\": {\"streams_per_sec\": %.0f, \"intervals_per_sec\": %.0f, \"p99_interval_micros\": %.1f, \"p99_alarm_delivery_micros\": %.1f, \"shed\": %d},\n", sps[0], ips[0], p99[0], del[0], shed[0]
        printf "     \"overload\": {\"streams_per_sec\": %.0f, \"intervals_per_sec\": %.0f, \"p99_interval_micros\": %.1f, \"p99_alarm_delivery_micros\": %.1f, \"shed\": %d}}", sps[1], ips[1], p99[1], del[1], shed[1]
        if (shed[0] != 0) {
            printf "bench.sh: fleet nominal run at %d streams shed %d intervals, want 0\n", scale, shed[0] > "/dev/stderr"
            exit 1
        }
        if (shed[1] == 0) {
            printf "bench.sh: fleet overload run at %d streams shed nothing\n", scale > "/dev/stderr"
            exit 1
        }
    }
    ' >> "$FLEET_OUT" || FLEET_FAIL=1
done
printf '\n  ]\n}\n' >> "$FLEET_OUT"
[ "$FLEET_FAIL" = 0 ] || { echo "bench.sh: fleet bars failed" >&2; exit 1; }

echo
echo "wrote $FLEET_OUT:"
cat "$FLEET_OUT"

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
