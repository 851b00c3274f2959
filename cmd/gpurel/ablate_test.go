package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestAblateSmoke runs a tiny model ablation end to end: it exits 0,
// prints one row per model variant, and reports the calibration's
// micro-benchmark campaigns on the stderr it was given.
// TestCommandsPrintStudyRows checks the rows themselves.
func TestAblateSmoke(t *testing.T) {
	out, stderr, code := captureRun(t, "ablate", "-device", "volta", "-code", "FMXM", "-trials", "4", "-faults", "8")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "full model") || strings.HasPrefix(line, "without ") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 5 {
		t.Fatalf("%d model rows, want 5:\n%s", len(rows), out)
	}
	if !strings.Contains(stderr, "micro beam FADD ") {
		t.Errorf("stderr lacks the calibration's micro beam lines:\n%s", stderr)
	}
}

// captureRun runs gpurel with args and returns its standard output,
// its stderr and its exit status.
func captureRun(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = wr
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(rd)
		done <- string(b)
	}()
	var errBuf strings.Builder
	code = run(args, &errBuf)
	os.Stdout = saved
	wr.Close()
	return <-done, errBuf.String(), code
}
