package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"gpurel/internal/faultinj"
)

// TestGateRegistry pins the registry's shape: unique names, each
// tolerance the faultinj constant its gate is documented against, and
// a CI matrix leg per gate.
func TestGateRegistry(t *testing.T) {
	want := map[string]float64{
		"crossval": faultinj.CrossValTolerance,
		"opt":      faultinj.OptOrderingEps,
		"twolevel": faultinj.TwoLevelTolerance,
		"duemode":  faultinj.DUEModeTolerance,
		"hidden":   faultinj.MeasuredCrossValTolerance,
	}
	seen := map[string]bool{}
	for _, g := range gates {
		if seen[g.Name] {
			t.Errorf("gate %q registered twice", g.Name)
		}
		seen[g.Name] = true
		tol, ok := want[g.Name]
		if !ok {
			t.Errorf("gate %q has no documented tolerance in this test", g.Name)
			continue
		}
		if g.Tolerance != tol {
			t.Errorf("gate %q tolerance %.2f, want the faultinj constant %.2f", g.Name, g.Tolerance, tol)
		}
		if g.Size <= 0 || g.Run == nil {
			t.Errorf("gate %q: size %d, run set %v", g.Name, g.Size, g.Run != nil)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("registry has %d gates, want %d", len(seen), len(want))
	}

	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^\s+gate: \[([^\]]*)\]`).FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml has no gates matrix")
	}
	var legs []string
	for _, name := range strings.Split(string(m[1]), ",") {
		legs = append(legs, strings.TrimSpace(name))
	}
	if got, wantLegs := strings.Join(legs, ","), strings.Join(gateNames()[:len(gates)], ","); got != wantLegs {
		t.Errorf("ci.yml gates matrix %q, want the registry %q", got, wantLegs)
	}
}

// TestUnknownGateFails covers the dispatcher's argument guard: an
// unknown -gate name must exit non-zero and list the valid names.
func TestUnknownGateFails(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"lint", "-gate", "no-such-gate"}, &stderr); code == 0 {
		t.Fatalf("unknown gate: exit 0, want non-zero; stderr:\n%s", stderr.String())
	}
	for _, name := range gateNames() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("error output does not list gate %q:\n%s", name, stderr.String())
		}
	}
}
