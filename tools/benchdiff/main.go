// Command benchdiff turns `go test -bench` output into a committed JSON
// snapshot and gates later runs against it.
//
//	go test -run='^$' -bench=BenchmarkSimPerFault . | go run ./tools/benchdiff emit >BENCH_v1.json
//	go run ./tools/benchdiff compare -band 2.0 BENCH_v1.json bench-new.json
//
// emit parses benchmark result lines (ns/op plus any other columns:
// ReportMetric values such as faults/s and ns/fault, and the B/op and
// allocs/op of benchmarks that call ReportAllocs) from stdin and writes
// the snapshot JSON to stdout. compare reads two snapshots and fails
// when any benchmark present in the base regresses:
//
//   - time: new ns/op > base ns/op * (1 + band);
//   - allocations: when the base records allocs/op, new allocs/op >
//     base allocs/op + allocSlack.
//
// The band is deliberately wide by default. Committed snapshots are
// taken on one machine while CI re-times on whatever runner it gets, so
// a tight band would gate on hardware, not on code. The default 2.0
// (fail only past 3x the committed time) still catches the class of
// regression that motivated the gate — algorithmic slowdowns of the
// fault-replay path — while riding out runner-to-runner spread. Teams
// timing on fixed hardware can tighten it with -band.
//
// Allocation counts need no band. They do not depend on the runner's
// hardware, only on the code path, so a snapshot taken on one machine
// gates allocations on any other almost exactly. The slack of
// allocSlack allocations per op absorbs the one source of run-to-run
// variation: a garbage collection that empties a sync.Pool forces the
// next few operations to rebuild what the pool held, which a short
// benchmark spreads over its iterations. A replay path that starts
// allocating per launch or per block again overshoots it by an order
// of magnitude, on any runner.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements in a snapshot.
type Result struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is a committed benchmark baseline (BENCH_v<n>.json).
type Snapshot struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// allocSlack is how many allocs/op a benchmark may exceed its base by.
const allocSlack = 2

// minOfN lists the columns a repeated benchmark keeps the minimum of
// across its -count=N reports, independently of which report had the
// fastest ns/op: allocation counts only ever rise with noise (pool
// drops), never fall.
var minOfN = []string{"B/op", "allocs/op"}

// benchLine matches `BenchmarkName-8   123   4567 ns/op   89.0 extra/unit ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(r *bufio.Scanner) (*Snapshot, error) {
	snap := &Snapshot{Benchmarks: map[string]Result{}}
	for r.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(r.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad value %q on %s", fields[i], m[1])
			}
			if fields[i+1] == "ns/op" {
				res.NsPerOp = v
			} else {
				res.Metrics[fields[i+1]] = v
			}
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		// With -count=N the same benchmark reports N times; keep the
		// fastest. Minimum-of-N is the standard noise damper when the
		// machine is shared: contention only ever adds time.
		if prev, ok := snap.Benchmarks[m[1]]; ok {
			for _, k := range minOfN {
				if pv, ok := prev.Metrics[k]; ok && pv < res.Metrics[k] {
					res.Metrics[k] = pv
				}
			}
			if prev.NsPerOp <= res.NsPerOp {
				for _, k := range minOfN {
					if v, ok := res.Metrics[k]; ok {
						prev.Metrics[k] = v
					}
				}
				continue
			}
		}
		snap.Benchmarks[m[1]] = res
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark result lines found")
	}
	return snap, nil
}

func load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	return &s, nil
}

func emit(args []string) int {
	note := ""
	for i := 0; i < len(args); i++ {
		if args[i] == "-note" && i+1 < len(args) {
			note = args[i+1]
			i++
		}
	}
	snap, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	snap.Note = note
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}

func compare(args []string) int {
	band := 2.0
	paths := []string{}
	for i := 0; i < len(args); i++ {
		if args[i] == "-band" && i+1 < len(args) {
			v, err := strconv.ParseFloat(args[i+1], 64)
			if err != nil || v < 0 {
				fmt.Fprintf(os.Stderr, "benchdiff: bad -band %q\n", args[i+1])
				return 2
			}
			band = v
			i++
			continue
		}
		paths = append(paths, args[i])
	}
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff compare [-band f] base.json new.json")
		return 2
	}
	base, err := load(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cur, err := load(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	fmt.Printf("%-40s %14s %14s %8s %11s %11s\n", "benchmark", "base ns/op", "new ns/op", "ratio", "base allocs", "new allocs")
	for _, name := range names {
		b := base.Benchmarks[name]
		n, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Printf("%-40s %14.0f %14s %8s  MISSING\n", name, b.NsPerOp, "-", "-")
			failed = true
			continue
		}
		ratio := n.NsPerOp / b.NsPerOp
		var verdicts []string
		if n.NsPerOp > b.NsPerOp*(1+band) {
			verdicts = append(verdicts, fmt.Sprintf("REGRESSION (band %.2f)", band))
		}
		ba, bok := b.Metrics["allocs/op"]
		na, nok := n.Metrics["allocs/op"]
		baseAllocs, newAllocs := "-", "-"
		if bok {
			baseAllocs = strconv.FormatFloat(ba, 'f', -1, 64)
			switch {
			case !nok:
				verdicts = append(verdicts, "ALLOCS MISSING")
			case na > ba+allocSlack:
				verdicts = append(verdicts, fmt.Sprintf("ALLOC REGRESSION (slack %d)", allocSlack))
			}
		}
		if nok {
			newAllocs = strconv.FormatFloat(na, 'f', -1, 64)
		}
		verdict := "ok"
		if len(verdicts) > 0 {
			verdict = strings.Join(verdicts, ", ")
			failed = true
		}
		fmt.Printf("%-40s %14.0f %14.0f %7.2fx %11s %11s  %s\n", name, b.NsPerOp, n.NsPerOp, ratio, baseAllocs, newAllocs, verdict)
	}
	if failed {
		fmt.Println("benchdiff: FAIL")
		return 1
	}
	fmt.Println("benchdiff: ok")
	return 0
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff {emit [-note s] | compare [-band f] base.json new.json}")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "emit":
		os.Exit(emit(os.Args[2:]))
	case "compare":
		os.Exit(compare(os.Args[2:]))
	default:
		fmt.Fprintf(os.Stderr, "benchdiff: unknown mode %q\n", os.Args[1])
		os.Exit(2)
	}
}
