package lintgo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module from path->content pairs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestSeededViolation(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"bad.go": `package fixture

import "fmt"

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`,
	})
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Message, "nondeterministic") || !strings.Contains(fs[0].Message, "Printf") {
		t.Errorf("message %q should name the hazard and the sink", fs[0].Message)
	}
	if fs[0].Pos.Line != 6 {
		t.Errorf("finding at line %d, want 6 (the range statement)", fs[0].Pos.Line)
	}
}

// Deterministic uses of maps must not be flagged: slice iteration that
// prints, key collection without output, and the collect-sort-iterate
// idiom the check exists to steer people toward.
func TestCleanPatterns(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"ok.go": `package fixture

import (
	"fmt"
	"sort"
)

func sliceLoop(xs []int) {
	for _, x := range xs {
		fmt.Println(x)
	}
}

func collectOnly(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedDump(m map[string]int) {
	for _, k := range collectOnly(m) {
		fmt.Printf("%s=%d\n", k, m[k])
	}
}
`,
	})
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("clean patterns flagged: %v", fs)
	}
}

// A map whose type is declared in a sibling intra-module package must
// still be recognized — this exercises the recursive source loader.
func TestCrossPackageMapType(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"store/store.go": `package store

type Table struct {
	Rows map[string]float64
}
`,
		"render/render.go": `package render

import (
	"fmt"

	"fixture/store"
)

func Dump(t *store.Table) {
	for name, v := range t.Rows {
		fmt.Printf("%s %g\n", name, v)
	}
}
`,
	})
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1 (cross-package map type): %v", len(fs), fs)
	}
	if !strings.HasSuffix(fs[0].Pos.Filename, "render.go") {
		t.Errorf("finding in %s, want render.go", fs[0].Pos.Filename)
	}
}

// Nondeterminism sources inside the deterministic campaign packages
// must be flagged: time.Now and math/rand (either version) in
// internal/faultinj, and math/rand in internal/serve.
func TestNondetViolations(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/faultinj/bad.go": `package faultinj

import (
	"math/rand/v2"
	"time"
)

func Jitter() int64 {
	r := rand.New(rand.NewPCG(1, uint64(time.Now().UnixNano())))
	return r.Int64()
}
`,
		"internal/serve/bad.go": `package serve

import "math/rand"

func Pick(n int) int { return rand.Intn(n) }
`,
	})
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 {
		t.Fatalf("got %d findings, want 3 (rand import + time.Now in faultinj, rand import in serve): %v", len(fs), fs)
	}
	var randHits, clockHits int
	for _, f := range fs {
		switch {
		case strings.Contains(f.Message, "math/rand"):
			randHits++
			if !strings.Contains(f.Message, "stats.RNG") {
				t.Errorf("rand finding %q should point at stats.RNG", f.Message)
			}
		case strings.Contains(f.Message, "time.Now"):
			clockHits++
		default:
			t.Errorf("unexpected finding %q", f.Message)
		}
	}
	if randHits != 2 || clockHits != 1 {
		t.Errorf("got %d rand + %d clock findings, want 2 + 1", randHits, clockHits)
	}
}

// The sanctioned exemptions must hold: internal/stats may wrap
// math/rand/v2 (it is the seeded RNG's home), internal/serve may read
// the clock for elapsed-time bookkeeping, and packages outside the ban
// list are untouched.
func TestNondetExemptions(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/stats/rng.go": `package stats

import "math/rand/v2"

type RNG struct{ src *rand.Rand }
`,
		"internal/serve/clock.go": `package serve

import "time"

func Started() time.Time { return time.Now() }
`,
		"cmd/tool/main.go": `package main

import (
	"math/rand"
	"time"
)

func main() { _ = rand.Intn(int(time.Now().Unix())) }
`,
	})
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("sanctioned uses flagged: %v", fs)
	}
}

// A hand-written pool in a campaign package is flagged at its go
// statement and pointed at par.ForEach.
func TestGoStmtViolation(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/core/pool.go": `package core

func Each(n int, fn func(int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) { fn(i); done <- struct{}{} }(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}
`,
	})
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Pos.Line != 6 || !strings.Contains(fs[0].Message, "par.ForEach") {
		t.Fatalf("got %v, want one finding at pool.go:6 pointing at par.ForEach", fs)
	}
}

// Goroutines stay legal where the pool itself lives, in the daemon's
// campaign lifecycles, and outside the banned packages.
func TestGoStmtExemptions(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/par/par.go": `package par

func Go(fn func()) { go fn() }
`,
		"internal/serve/campaign.go": `package serve

type Campaign struct{}

func (c *Campaign) run() {}

func Start(c *Campaign) { go c.run() }
`,
		"cmd/tool/main.go": `package main

func main() { go func() {}() }
`,
	})
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("sanctioned goroutines flagged: %v", fs)
	}
}

func TestNewRunnerViolation(t *testing.T) {
	src := `package %s

import "fixture/internal/kernels"

func build(b kernels.Builder) (*kernels.Runner, error) {
	return kernels.NewRunner("W", b, nil, 0)
}
`
	files := map[string]string{"go.mod": "module fixture\n\ngo 1.22\n"}
	pkgs := []string{"faultinj", "beam", "patterns", "profiler", "core", "serve"}
	for _, pkg := range pkgs {
		files["internal/"+pkg+"/build.go"] = fmt.Sprintf(src, pkg)
	}
	fs, err := CheckTree(writeModule(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != len(pkgs) {
		t.Fatalf("got %d findings, want one per package (%d): %v", len(fs), len(pkgs), fs)
	}
	for _, f := range fs {
		if f.Pos.Line != 6 || !strings.Contains(f.Message, "kernels.Cache") {
			t.Errorf("finding %v: want line 6, pointing at the caller's runner or a kernels.Cache", f)
		}
	}
}

// Runners may be built where they are owned: in the runner layer
// itself, in commands and examples, and in tests.
func TestNewRunnerExemptions(t *testing.T) {
	call := `(*kernels.Runner, error) { return kernels.NewRunner("W", nil, nil, 0) }`
	root := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/kernels/cache.go": `package kernels

type Runner struct{}

func NewRunner(name string, b, dev any, opt int) (*Runner, error) { return &Runner{}, nil }

func get() (*Runner, error) { return NewRunner("W", nil, nil, 0) }
`,
		"cmd/tool/main.go":                "package main\n\nimport \"fixture/internal/kernels\"\n\nfunc build() " + call + "\n",
		"internal/faultinj/build_test.go": "package faultinj\n\nimport \"fixture/internal/kernels\"\n\nfunc build() " + call + "\n",
	})
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("sanctioned runner builds flagged: %v", fs)
	}
}

func TestFromMicroResultsViolation(t *testing.T) {
	src := `package main

import "fixture/internal/fit"

func units() (*fit.UnitFITs, error) {
	return fit.FromMicroResults("D", nil, nil, nil, nil, 4)
}
`
	files := map[string]string{"go.mod": "module fixture\n\ngo 1.22\n"}
	dirs := []string{"cmd/tool", "examples/demo"}
	for _, dir := range dirs {
		files[dir+"/main.go"] = src
	}
	fs, err := CheckTree(writeModule(t, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != len(dirs) {
		t.Fatalf("got %d findings, want one per directory (%d): %v", len(fs), len(dirs), fs)
	}
	for _, f := range fs {
		if f.Pos.Line != 6 || !strings.Contains(f.Message, "core.Calibrate") {
			t.Errorf("finding %v: want line 6, pointing at core.Calibrate", f)
		}
	}
}

// The predictor is calibrated where the study is run, and tests may
// calibrate fakes.
func TestFromMicroResultsExemptions(t *testing.T) {
	call := `(*fit.UnitFITs, error) { return fit.FromMicroResults("D", nil, nil, nil, nil, 4) }`
	root := writeModule(t, map[string]string{
		"go.mod":                     "module fixture\n\ngo 1.22\n",
		"internal/core/study.go":     "package core\n\nimport \"fixture/internal/fit\"\n\nfunc calibrate() " + call + "\n",
		"cmd/tool/main_test.go":      "package main\n\nimport \"fixture/internal/fit\"\n\nfunc units() " + call + "\n",
		"examples/demo/demo_test.go": "package main\n\nimport \"fixture/internal/fit\"\n\nfunc units() " + call + "\n",
	})
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("sanctioned calibrations flagged: %v", fs)
	}
}

// The repository itself must stay clean — this is the same gate the
// full check tier runs via tools/gomaplint.
func TestRepoClean(t *testing.T) {
	fs, err := CheckTree("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("repository has nondeterministic map iterations feeding writers:\n%v", fs)
	}
}
