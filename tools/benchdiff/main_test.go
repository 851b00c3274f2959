package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkSimPerFaultFMXM-2   	    2000	   1000000 ns/op	      1000 faults/s	    4000 B/op	       9 allocs/op
BenchmarkSimPerFaultFMXM-2   	    2100	    900000 ns/op	      1111 faults/s	    4200 B/op	      11 allocs/op
BenchmarkSimPerFaultFMXM-2   	    1900	    950000 ns/op	      1052 faults/s	    3900 B/op	      10 allocs/op
BenchmarkSimSnapshotRestore-2	   50000	     30000 ns/op
PASS
`

// TestParseKeepsMinimumOfN checks that a repeated benchmark keeps its
// fastest report's time and the smallest allocation columns over all
// reports, and that benchmarks without ReportAllocs carry no columns.
func TestParseKeepsMinimumOfN(t *testing.T) {
	snap, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	fmxm := snap.Benchmarks["BenchmarkSimPerFaultFMXM"]
	if fmxm.NsPerOp != 900000 || fmxm.Metrics["faults/s"] != 1111 {
		t.Errorf("kept %+v, want the 900000 ns/op report", fmxm)
	}
	if fmxm.Metrics["allocs/op"] != 9 || fmxm.Metrics["B/op"] != 3900 {
		t.Errorf("allocation columns %v, want the minimum over reports (9 allocs/op, 3900 B/op)", fmxm.Metrics)
	}
	if m := snap.Benchmarks["BenchmarkSimSnapshotRestore"].Metrics; m != nil {
		t.Errorf("metrics %v on a benchmark without extra columns", m)
	}
}

// TestCompareGatesAllocations checks the allocation gate: within the
// slack passes, past it fails even when time improved, and a base with
// allocation counts fails a new snapshot that lacks them.
func TestCompareGatesAllocations(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ns, allocs float64, withAllocs bool) string {
		r := Result{Iterations: 100, NsPerOp: ns, Metrics: map[string]float64{}}
		if withAllocs {
			r.Metrics["allocs/op"] = allocs
		}
		b, err := json.Marshal(Snapshot{Benchmarks: map[string]Result{"BenchmarkX": r}})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", 1000, 10, true)
	cases := []struct {
		name       string
		ns, allocs float64
		withAllocs bool
		want       int
	}{
		{"same", 1000, 10, true, 0},
		{"within slack", 1000, 10 + allocSlack, true, 0},
		{"past slack, faster", 500, 11 + allocSlack, true, 1},
		{"allocs missing", 1000, 0, false, 1},
		{"time past band", 3500, 10, true, 1},
	}
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	for _, c := range cases {
		cur := write(c.name+".json", c.ns, c.allocs, c.withAllocs)
		if got := compare([]string{"-band", "2.0", base, cur}); got != c.want {
			t.Errorf("%s: compare exit %d, want %d", c.name, got, c.want)
		}
	}
}
