#!/bin/sh
# Repository check tiers.
#
#   scripts/check.sh            tier 1: build (root and perfbench modules) + tests
#                               (the gate every change must pass)
#   scripts/check.sh full       tier 2: tier 1 + gofmt + go vet (root and perfbench
#                               modules) + lint gate + race detector
#   scripts/check.sh bench      substrate benchmarks (one iteration each; smoke, not timing)
#   scripts/check.sh artifacts  golden-artifact drift gate: regenerate out/ and byte-diff
#   scripts/check.sh gates [name]
#                               agreement gates: rerun one gpurel lint -gate
#                               (crossval, opt, twolevel, duemode, hidden; default
#                               all) and fail on any out-of-tolerance workload;
#                               the rendered table lands at gate-<name>-table.txt
#   scripts/check.sh serve      campaign-daemon gate: serve tests under -race, then a
#                               loadgen soak (200+ concurrent campaigns) against a live
#                               gpurel serve; soak report lands at serve-soak.txt
#
# Unknown tier names fail immediately (exit 1) rather than silently
# running tier 1 — a typo'd "scripts/check.sh gate" in CI must not
# masquerade as a passing gate. Unknown gate names fail in gpurel lint,
# which lists the valid ones. Setting CHECK_SH_PARSE_ONLY=1
# validates the tier argument and exits before doing any work (used by
# the dispatcher's own tests).
#
# The race run executes the whole test suite a second time under
# -race instrumentation; expect it to take several times longer than
# the plain run. It uses -short so the heaviest campaign tests (already
# exercised un-instrumented by tier 1) do not push packages past the
# per-package timeout under the ~10x race slowdown.
#
# The artifacts tier reruns the full two-device study with the canonical
# flags (see EXPERIMENTS.md) into a temp directory and byte-compares it
# against the committed out/. The study is deterministic, so any diff is
# either an intentional model change (regenerate and commit out/) or
# silent drift — both are worth failing CI over.
set -eu
cd "$(dirname "$0")/.."

tier="${1:-}"
case "$tier" in
    ""|full|bench|artifacts|serve|gates) ;;
    *)
        echo "check.sh: unknown tier \"$tier\"" >&2
        echo "known tiers: <none> (tier 1), full, bench, artifacts, serve, gates" >&2
        exit 1
        ;;
esac

if [ "${CHECK_SH_PARSE_ONLY:-}" = "1" ]; then
    echo "tier ok: ${tier:-default}"
    exit 0
fi

if [ "${1:-}" = "bench" ]; then
    # Two stages. First a one-iteration smoke pass over every substrate
    # benchmark and the analyzer benchmark (compiles-and-runs coverage,
    # no timing claims). Then the
    # timed per-fault gate: re-time the BenchmarkSimPerFault* suite and
    # the golden-run benchmarks (BenchmarkSimGolden*, which run the same
    # interpreter), emit the snapshot JSON benchdiff consumes
    # (bench-new.json; stable path, gitignored, uploaded by CI), and
    # compare it against every gated committed point (v4 adds QUICKSORT
    # and BFS, v5 FLUDUniform, v7 the golden runs and the QUICKSORT and
    # MERGESORT uniform plan sets); an entry in several answers to the
    # tightest. The time band is wide (see
    # tools/benchdiff) because CI runners are not the snapshot machine;
    # it exists to catch algorithmic regressions of the replay path,
    # not single-digit-percent noise. Allocations per op are gated with
    # a small fixed slack instead: they do not depend on the hardware.
    echo "== go test -run=^\$ -bench='BenchmarkSim|BenchmarkAnalyze' -benchtime=1x ./..."
    go test -run='^$' -bench='BenchmarkSim|BenchmarkAnalyze' -benchtime=1x ./...
    echo "== go test -run=^\$ -bench='BenchmarkSimPerFault|BenchmarkSimGolden' -benchtime=2s -count=3 ."
    go test -run='^$' -bench='BenchmarkSimPerFault|BenchmarkSimGolden' -benchtime=2s -count=3 . >bench-run.txt
    cat bench-run.txt
    go run ./tools/benchdiff emit -note "scripts/check.sh bench" <bench-run.txt >bench-new.json
    for point in BENCH_v1.json BENCH_v4.json BENCH_v5.json BENCH_v6.json BENCH_v7.json; do
        echo "== benchdiff compare $point bench-new.json"
        go run ./tools/benchdiff compare -band 2.0 "$point" bench-new.json
    done
    echo "checks passed"
    exit 0
fi

if [ "${1:-}" = "artifacts" ]; then
    # Keep these flags in sync with EXPERIMENTS.md ("canonical artifact
    # regeneration"); a different trial count or seed produces different
    # (equally valid) numbers and a guaranteed diff. The byte-diff covers
    # every committed artifact, including the residency_* telemetry
    # tables and the due_gap_*/due_* static-vs-measured columns.
    #
    # On drift, the sanitized diff summary is left at out-drift-summary.txt
    # (stable path; gitignored) so CI can upload it as a workflow artifact.
    regen_cmd="go run ./cmd/gpurel repro -trials 450 -faults 640 -seed 1"
    tmp="$(mktemp -d)"
    drift="$(mktemp)"
    trap 'rm -rf "$tmp" "$drift"' EXIT
    echo "== $regen_cmd -out <tempdir> -quiet"
    $regen_cmd -out "$tmp" -quiet
    echo "== diff -r out <tempdir>"
    if ! diff -r out "$tmp" >"$drift" 2>&1; then
        sed "s|$tmp|<regenerated>|g" "$drift" >out-drift-summary.txt
        echo "ARTIFACT DRIFT: regenerated artifacts differ from the committed out/:"
        grep -E '^(diff|Only in|Binary files)' out-drift-summary.txt || true
        echo "-- first differing hunks --"
        head -40 out-drift-summary.txt
        echo ""
        echo "Full diff summary written to out-drift-summary.txt"
        echo "If the change is intentional, regenerate and commit:"
        echo "    $regen_cmd -out out"
        exit 1
    fi
    rm -f out-drift-summary.txt
    echo "checks passed"
    exit 0
fi

if [ "$tier" = "gates" ]; then
    # Static-vs-dynamic agreement gates (the registry in
    # cmd/gpurel/gates.go): each reruns its campaigns on both
    # devices at its validated size and seed and fails if any workload
    # leaves the gate's faultinj tolerance. The rendered table lands at
    # gate-<name>-table.txt (stable path; gitignored) so CI can upload
    # it either way. The gates' packages already run under -race in
    # tier 2 and un-instrumented in tier 1.
    gate="${2:-all}"
    echo "== gpurel lint -gate $gate"
    if ! go run ./cmd/gpurel lint -gate "$gate" >"gate-$gate-table.txt"; then
        cat "gate-$gate-table.txt"
        echo "GATE $gate failed: a workload left its agreement tolerance, or the gate name is unknown (see above)"
        exit 1
    fi
    cat "gate-$gate-table.txt"
    echo "checks passed"
    exit 0
fi

if [ "$tier" = "serve" ]; then
    # Campaign-daemon gate, two stages. First the serve/stats/faultinj
    # packages rerun under -race: the daemon is the one place the repo
    # shards one campaign's trials across goroutines, so its tests are
    # where the race detector earns its keep. Then a live soak: build
    # gpurel and tools/loadgen, boot the daemon on a loopback
    # port, and push a few hundred concurrent campaigns through it.
    # The loadgen asserts determinism (duplicate requests land on
    # byte-identical /counts bodies), verifies adaptive stopping beat
    # the fixed-count baseline on every CrossValKernel, and writes the
    # savings table + latency percentiles + a /metrics scrape to
    # serve-soak.txt (stable path; gitignored) for CI to upload.
    echo "== go test -race ./internal/serve/ ./internal/stats/ ./internal/faultinj/"
    go test -race -timeout 20m ./internal/serve/ ./internal/stats/ ./internal/faultinj/
    bindir="$(mktemp -d)"
    spool="$(mktemp -d)"
    daemon_pid=""
    cleanup() {
        [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
        rm -rf "$bindir" "$spool"
    }
    trap cleanup EXIT
    echo "== go build ./cmd/gpurel ./tools/loadgen"
    go build -o "$bindir/gpurel" ./cmd/gpurel
    go build -o "$bindir/loadgen" ./tools/loadgen
    addr="127.0.0.1:${GPUREL_SERVE_PORT:-8397}"
    echo "== gpurel serve -addr $addr (background)"
    "$bindir/gpurel" serve -addr "$addr" -spool "$spool" -quiet &
    daemon_pid=$!
    echo "== loadgen -addr $addr -campaigns 200"
    "$bindir/loadgen" -addr "$addr" -campaigns 200 -out serve-soak.txt
    cat serve-soak.txt
    echo "checks passed"
    exit 0
fi

echo "== go build ./..."
go build ./...
# perfbench is its own module (replace gpurel => ../), so the root
# build and tests never compile it; building it here keeps an API
# change of the packages it drives from breaking the benchmark. The
# binary goes to /dev/null, not into the tree.
echo "== (cd perfbench && go build -o /dev/null .)"
(cd perfbench && go build -o /dev/null .)
echo "== go test ./..."
go test ./...

if [ "${1:-}" = "full" ]; then
    echo "== gofmt -l"
    unformatted="$(gofmt -l .)"
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:"
        echo "$unformatted"
        exit 1
    fi
    echo "== go vet ./..."
    go vet ./...
    # Tier 1 builds perfbench; vet it too.
    echo "== (cd perfbench && go vet ./...)"
    (cd perfbench && go vet ./...)
    echo "== gpurel lint (selftest + built-in kernels and micros)"
    go run ./cmd/gpurel lint -selftest
    go run ./cmd/gpurel lint >/dev/null
    echo "== gomaplint (deterministic artifact writers)"
    go run ./tools/gomaplint .
    echo "== go test -race -short ./..."
    go test -race -short -timeout 20m ./...
fi

echo "checks passed"
