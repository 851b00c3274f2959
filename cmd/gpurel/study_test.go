package main

import (
	"fmt"
	"strings"
	"testing"

	"gpurel/internal/core"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/report"
)

// TestCommandsPrintStudyRows runs one small V100 study and the
// campaign subcommands at the matching -trials, -faults and -seed:
// each must print the study's own rows, because each runs the study's
// campaigns.
func TestCommandsPrintStudyRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a device study")
	}
	ds, err := core.RunDevice(device.V100(), core.Options{
		MicroTrials: 20, CodeTrials: 20, SassifiPerClass: 10, NVBitFITotal: 40,
		OptFaults: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	size := []string{"-device", "volta", "-seed", "1", "-csv"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{append([]string{"beam", "-fig3", "-trials", "20"}, size...), report.Figure3(ds, true)},
		{append([]string{"beam", "-fig5", "-trials", "20"}, size...), report.Figure5(ds, true)},
		{append([]string{"inject", "-faults", "40"}, size...), report.Figure4(ds, true)},
	} {
		out, stderr, code := captureRun(t, tc.args...)
		if code != 0 {
			t.Fatalf("gpurel %s: exit %d; stderr:\n%s", strings.Join(tc.args, " "), code, stderr)
		}
		if out != tc.want {
			t.Errorf("gpurel %s printed\n%s\nwant the study's\n%s", strings.Join(tc.args, " "), out, tc.want)
		}
	}

	out, stderr, code := captureRun(t, "ablate", "-device", "volta", "-code", "FMXM",
		"-trials", "20", "-faults", "40", "-seed", "1")
	if code != 0 {
		t.Fatalf("ablate: exit %d; stderr:\n%s", code, stderr)
	}
	pred, ok := ds.Predictions[core.PredKey{Code: "FMXM", ECC: false, Tool: faultinj.NVBitFI}]
	if !ok {
		t.Fatal("study has no FMXM ECC-off NVBitFI prediction")
	}
	want := fmt.Sprintf("%.4f", pred.SDCFIT)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "full model") {
			if fields := strings.Fields(line); fields[len(fields)-2] != want {
				t.Errorf("ablate full-model row %q, want the study's Figure-6 prediction %s", line, want)
			}
			return
		}
	}
	t.Fatalf("ablate printed no full-model row:\n%s", out)
}
