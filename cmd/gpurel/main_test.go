package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExitStatus pins the exit-status convention: 2 for a usage error,
// 1 for a failed run, 0 for success and for -h.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"-h"}, 0},
		{[]string{"predict"}, 2},
		{[]string{"lint", "-h"}, 0},
		{[]string{"lint", "-no-such-flag"}, 2},
		{[]string{"lint", "-seed", "seven"}, 2},
		{[]string{"lint", "stray"}, 2},
		{[]string{"lint", "-device", "pascal"}, 2},
		{[]string{"lint", "-opt", "O9"}, 2},
		{[]string{"lint", "-gate", "no-such-gate"}, 2},
		{[]string{"lint", "-device", "kepler", "-gate", "duemode", "-code", "NOPE"}, 2},
		{[]string{"lint", "-device", "kepler", "-code", "NOPE"}, 2},
		{[]string{"lint", "-selftest"}, 0},
		{[]string{"inject", "-device", "pascal"}, 2},
		{[]string{"inject", "-tool", "sasifi"}, 2},
		{[]string{"inject", "-device", "kepler", "-code", "NOPE"}, 2},
		{[]string{"inject", "-device", "volta", "-tool", "sassifi", "-code", "FMXM"}, 1},
		{[]string{"inject", "-device", "volta", "-code", "HMXM"}, 1},
		{[]string{"inject", "-device", "kepler", "-tool", "sassifi", "-code", "FGEMM"}, 1},
		{[]string{"beam", "-device", "kepler"}, 2},
		{[]string{"beam", "-device", "kepler", "-code", "NOPE"}, 2},
		{[]string{"profile", "-device", "pascal"}, 2},
		{[]string{"profile", "-device", "kepler", "-timeline", "NOPE"}, 2},
		{[]string{"sassdump", "-code", "NOPE"}, 2},
		{[]string{"sassdump", "-opt", "bogus"}, 2},
		{[]string{"ablate", "-device", "volta", "-code", "NOPE"}, 2},
		{[]string{"ablate", "-code", ""}, 2},
		{[]string{"ablate", "-device", "volta", "-code", "HMXM"}, 1},
		{[]string{"sassdump", "-code", ""}, 2},
		{[]string{"inject", "-device", "all"}, 2},
		{[]string{"repro", "-device", "pascal"}, 2},
		{[]string{"repro", "-device", "volta", "-from", t.TempDir()}, 1},
	} {
		var stderr strings.Builder
		if got := run(tc.args, &stderr); got != tc.want {
			t.Errorf("gpurel %s: exit %d, want %d; stderr:\n%s", strings.Join(tc.args, " "), got, tc.want, stderr.String())
		}
	}
}

// TestDocumentedCommandsParse checks every `go run ./cmd/gpurel ...`
// line of README.md and EXPERIMENTS.md: the package is this one, and
// the subcommand, if any, exists and parses its flags.
func TestDocumentedCommandsParse(t *testing.T) {
	re := regexp.MustCompile("go run (\\./cmd/gpurel[^\\s`]*)([^`#\\n]*)")
	n := 0
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(text), -1) {
			n++
			if m[1] != "./cmd/gpurel" {
				t.Errorf("%s: %q runs %s, not ./cmd/gpurel", doc, m[0], m[1])
				continue
			}
			args := strings.Fields(m[2])
			if len(args) == 0 {
				continue // the bare command lists the subcommands
			}
			cmd := lookup(args[0])
			if cmd == nil {
				t.Errorf("%s: %q: unknown subcommand %q", doc, m[0], args[0])
				continue
			}
			var stderr strings.Builder
			f := newFlags(cmd.name, &stderr)
			cmd.setup(f)
			if err := f.parse(args[1:]); err != nil {
				t.Errorf("%s: %q: %v %s", doc, m[0], err, stderr.String())
			}
		}
	}
	if n < 20 {
		t.Errorf("found %d documented commands, want at least 20", n)
	}
}
