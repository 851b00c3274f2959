// Package report renders the study's artifacts — Table I and Figures 1,
// 3, 4, 5, 6 of the paper plus the §VII-B DUE analysis — as aligned
// ASCII tables and as CSV for external plotting, and the raw dumps
// behind `gpurel profile -timeline` and `gpurel sassdump -bits`.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gpurel/internal/analysis"
	"gpurel/internal/core"
	"gpurel/internal/faultinj"
	"gpurel/internal/isa"
	"gpurel/internal/microbench"
	"gpurel/internal/patterns"
	"gpurel/internal/stats"
	"gpurel/internal/suite"
)

// table accumulates an aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(b *strings.Builder) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func (t *table) csv(b *strings.Builder) {
	b.WriteString(strings.Join(t.header, ",") + "\n")
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ",") + "\n")
	}
}

// suiteOrder returns Table I's workload ordering for a device.
func suiteOrder(ds *core.DeviceStudy) []string {
	var names []string
	for _, e := range suite.ForDevice(ds.Dev) {
		names = append(names, e.Name)
	}
	return names
}

// TableI renders the workload characterization (shared memory, register
// file, IPC, occupancy) of one device.
func TableI(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"code", "shared", "regs", "IPC", "occupancy"}}
	for _, name := range suiteOrder(ds) {
		cp, ok := ds.Profiles[name]
		if !ok {
			continue
		}
		t.add(name, fmtBytes(cp.SharedBytes), fmt.Sprintf("%d", cp.RegsPerThread),
			fmt.Sprintf("%.2f", cp.IPC), fmt.Sprintf("%.2f", cp.Occupancy))
	}
	return finish(t, csv, fmt.Sprintf("Table I — code characteristics on %s", ds.Dev.Name))
}

// Figure1 renders the per-code instruction-class mix.
func Figure1(ds *core.DeviceStudy, csv bool) string {
	classes := isa.AllClasses()
	header := []string{"code"}
	for _, c := range classes {
		header = append(header, c.String())
	}
	t := &table{header: header}
	for _, name := range suiteOrder(ds) {
		cp, ok := ds.Profiles[name]
		if !ok {
			continue
		}
		row := []string{name}
		for _, c := range classes {
			row = append(row, fmt.Sprintf("%.1f%%", 100*cp.Mix[c]))
		}
		t.add(row...)
	}
	return finish(t, csv, fmt.Sprintf("Figure 1 — instruction mix on %s", ds.Dev.Name))
}

// Figure3 renders the micro-benchmark FIT rates, normalized to the
// device's lowest measured DUE rate, as in the paper.
func Figure3(ds *core.DeviceStudy, csv bool) string {
	ref := math.Inf(1)
	for _, r := range ds.MicroBeam {
		if r.DUEFIT.Rate > 0 && r.DUEFIT.Rate < ref {
			ref = r.DUEFIT.Rate
		}
	}
	if math.IsInf(ref, 1) {
		ref = 1
	}
	t := &table{header: []string{"micro", "SDC [a.u.]", "DUE [a.u.]", "SDC CI95"}}
	for _, m := range microbench.Catalog(ds.Dev) {
		r, ok := ds.MicroBeam[m.Name]
		if !ok {
			continue
		}
		t.add(m.Name,
			fmt.Sprintf("%.2f", r.SDCFIT.Rate/ref),
			fmt.Sprintf("%.2f", r.DUEFIT.Rate/ref),
			fmt.Sprintf("[%.2f,%.2f]", r.SDCFIT.CI.Lower/ref, r.SDCFIT.CI.Upper/ref))
	}
	return finish(t, csv, fmt.Sprintf(
		"Figure 3 — micro-benchmark FIT on %s (normalized to lowest DUE; RF measured with ECC off)", ds.Dev.Name))
}

// Figure4 renders the per-code AVFs per injector.
func Figure4(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"code", "tool", "SDC AVF", "DUE AVF", "masked", "n"}}
	tools := []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI}
	for _, name := range suiteOrder(ds) {
		for _, tool := range tools {
			r, ok := ds.AVF[tool][name]
			if !ok {
				continue
			}
			t.add(name, tool.String(),
				fmt.Sprintf("%.3f±%.3f", r.SDCAVF.P, r.SDCAVF.HalfWidth()),
				fmt.Sprintf("%.3f±%.3f", r.DUEAVF.P, r.DUEAVF.HalfWidth()),
				fmt.Sprintf("%.3f", float64(r.Masked)/float64(r.Injected)),
				fmt.Sprintf("%d", r.Injected))
		}
	}
	return finish(t, csv, fmt.Sprintf("Figure 4 — AVF on %s", ds.Dev.Name))
}

// Figure5 renders the beam-measured code FIT rates, normalized to the
// lowest micro-benchmark DUE as in Figure 3.
func Figure5(ds *core.DeviceStudy, csv bool) string {
	ref := math.Inf(1)
	for _, r := range ds.MicroBeam {
		if r.DUEFIT.Rate > 0 && r.DUEFIT.Rate < ref {
			ref = r.DUEFIT.Rate
		}
	}
	if math.IsInf(ref, 1) {
		ref = 1
	}
	t := &table{header: []string{"code", "ECC", "SDC [a.u.]", "DUE [a.u.]", "SDC events", "trials"}}
	for _, ecc := range []bool{false, true} {
		for _, name := range suiteOrder(ds) {
			r, ok := ds.Beam[core.BeamKey{Code: name, ECC: ecc}]
			if !ok {
				continue
			}
			t.add(name, eccLabel(ecc),
				fmt.Sprintf("%.3f", r.SDCFIT.Rate/ref),
				fmt.Sprintf("%.3f", r.DUEFIT.Rate/ref),
				fmt.Sprintf("%d", r.SDC), fmt.Sprintf("%d", r.Trials))
		}
	}
	return finish(t, csv, fmt.Sprintf("Figure 5 — beam FIT rates on %s (a.u.)", ds.Dev.Name))
}

// Figure6 renders the signed beam/prediction SDC ratios plus the
// per-group averages the paper quotes in §VII-A.
func Figure6(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"code", "ECC", "tool", "beam SDC", "predicted", "ratio"}}
	cs := aliasComparisons(ds)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].ECC != cs[j].ECC {
			return !cs[i].ECC
		}
		if cs[i].Tool != cs[j].Tool {
			return cs[i].Tool < cs[j].Tool
		}
		return cs[i].Name < cs[j].Name
	})
	groups := map[string][]float64{}
	for _, c := range cs {
		ratio := "n/a (0 events)"
		if !math.IsInf(c.Ratio, 0) && c.Ratio != 0 {
			ratio = fmt.Sprintf("%+.1fx", c.Ratio)
			key := fmt.Sprintf("%s ECC %s", c.Tool, eccLabel(c.ECC))
			groups[key] = append(groups[key], c.Ratio)
		}
		t.add(c.Name, eccLabel(c.ECC), c.Tool.String(),
			fmt.Sprintf("%.4f", c.Measured), fmt.Sprintf("%.4f", c.Predict), ratio)
	}
	var b strings.Builder
	b.WriteString(finish(t, csv, fmt.Sprintf("Figure 6 — beam vs fault-simulation SDC prediction on %s", ds.Dev.Name)))
	if !csv {
		var keys []string
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(fmt.Sprintf("  average difference, %s: %+.1fx (geometric, %d codes)\n",
				k, stats.GeomMeanAbsSigned(groups[k]), len(groups[k])))
		}
	}
	return b.String()
}

// ComparisonAlias re-exports fit.Comparison fields for sorting.
type ComparisonAlias struct {
	Name     string
	ECC      bool
	Tool     faultinj.Tool
	Measured float64
	Predict  float64
	Ratio    float64
}

func aliasComparisons(ds *core.DeviceStudy) []ComparisonAlias {
	out := make([]ComparisonAlias, 0, len(ds.Comparisons))
	for _, c := range ds.Comparisons {
		out = append(out, ComparisonAlias{
			Name: c.Name, ECC: c.ECC, Tool: c.Tool,
			Measured: c.Measured, Predict: c.Predict, Ratio: c.Ratio,
		})
	}
	return out
}

// DUETable renders the §VII-B DUE underestimation analysis: the
// uncorrected Eq. 1-4 factor next to the factor after the
// measured-residency hidden-resource correction.
func DUETable(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"device", "ECC", "beam DUE / predicted DUE",
		"after measured correction"}}
	for _, ecc := range []bool{false, true} {
		v, ok := ds.DUEUnderestimate[ecc]
		if !ok {
			continue
		}
		meas := "n/a"
		if m, ok := ds.DUEMeasuredUnderestimate[ecc]; ok {
			meas = fmt.Sprintf("%.1fx", m)
		}
		t.add(ds.Dev.Name, eccLabel(ecc), fmt.Sprintf("%.0fx", v), meas)
	}
	return finish(t, csv,
		"§VII-B — beam DUE rate vs prediction (faults in hidden resources dominate DUEs)")
}

// DUEGapTable renders the per-code DUE channel: beam measurement,
// uncorrected Eq. 1-4 prediction, the measured-residency-corrected
// prediction, and the underestimation factor under each. The corrected
// factor being consistently smaller is the claim of the hidden-resource
// model; rows where no measured hidden estimate exists show the
// uncorrected numbers only.
func DUEGapTable(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"code", "ECC", "beam DUE", "predicted",
		"corrected (meas)", "under (pred)", "under (meas)"}}
	for _, ecc := range []bool{false, true} {
		for _, name := range suiteOrder(ds) {
			beamRes, ok := ds.Beam[core.BeamKey{Code: name, ECC: ecc}]
			if !ok {
				continue
			}
			pred, ok := ds.Predictions[core.PredKey{Code: name, ECC: ecc, Tool: faultinj.NVBitFI}]
			if !ok {
				continue
			}
			under := func(p float64) string {
				if p <= 0 || beamRes.DUEFIT.Rate <= 0 {
					return "n/a"
				}
				return fmt.Sprintf("%.0fx", beamRes.DUEFIT.Rate/p)
			}
			measured := "n/a"
			if pred.DUEFITCorrectedMeasured > 0 {
				measured = fmt.Sprintf("%.4f", pred.DUEFITCorrectedMeasured)
			}
			t.add(name, eccLabel(ecc),
				fmt.Sprintf("%.4f", beamRes.DUEFIT.Rate),
				fmt.Sprintf("%.4f", pred.DUEFIT),
				measured,
				under(pred.DUEFIT), under(pred.DUEFITCorrectedMeasured))
		}
	}
	return finish(t, csv, fmt.Sprintf(
		"§VII-B per code — DUE underestimation before/after the hidden-resource corrections (%s, NVBitFI)",
		ds.Dev.Name))
}

// ResidencyTable renders the measured-residency telemetry per code: the
// golden run's execution-weighted occupancy signals next to the strike
// shares and conditional DUE the measured hidden-resource model derives
// from them.
func ResidencyTable(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"code", "sched util", "fetch", "div depth",
		"load depth", "warps/SMcyc", "SMcyc/cyc",
		"sched", "pipe", "mem", "host", "P(DUE|hidden)", "exposure"}}
	for _, name := range suiteOrder(ds) {
		cp, ok := ds.Profiles[name]
		if !ok {
			continue
		}
		h, ok := ds.MeasuredHidden[name]
		if !ok {
			continue
		}
		r := cp.Residency
		t.add(name,
			fmt.Sprintf("%.3f", r.SchedUtil),
			fmt.Sprintf("%.3f", r.FetchRate),
			fmt.Sprintf("%.3f", r.DivDepth),
			fmt.Sprintf("%.3f", r.LoadDepth),
			fmt.Sprintf("%.2f", r.WarpsPerSMCycle),
			fmt.Sprintf("%.3f", r.SMCyclesPerCycle),
			fmt.Sprintf("%.3f", h.SchedulerShare),
			fmt.Sprintf("%.3f", h.InstrPipeShare),
			fmt.Sprintf("%.3f", h.MemPathShare),
			fmt.Sprintf("%.3f", h.HostIfaceShare),
			fmt.Sprintf("%.3f", h.DUE),
			fmt.Sprintf("%.2f", h.Exposure))
	}
	return finish(t, csv, fmt.Sprintf(
		"Measured residency telemetry on %s (golden-run occupancies, measured strike shares, conditional DUE)",
		ds.Dev.Name))
}

// HiddenDUE renders the static hidden-resource model per code: the
// three structural proxies, the implied strike shares, and the combined
// static P(DUE | hidden strike).
func HiddenDUE(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"code", "fetch", "div depth", "load",
		"sched", "pipe", "mem", "host", "P(DUE|hidden)"}}
	for _, name := range suiteOrder(ds) {
		h, ok := ds.StaticHidden[name]
		if !ok {
			continue
		}
		t.add(name,
			fmt.Sprintf("%.3f", h.FetchExposure),
			fmt.Sprintf("%.3f", h.DivergenceDepth),
			fmt.Sprintf("%.3f", h.LoadPressure),
			fmt.Sprintf("%.3f", h.SchedulerShare),
			fmt.Sprintf("%.3f", h.InstrPipeShare),
			fmt.Sprintf("%.3f", h.MemPathShare),
			fmt.Sprintf("%.3f", h.HostIfaceShare),
			fmt.Sprintf("%.3f", h.DUE))
	}
	return finish(t, csv, fmt.Sprintf(
		"Static hidden-resource DUE model on %s (proxies, strike shares, conditional DUE)", ds.Dev.Name))
}

// Full renders every artifact of a device study.
func Full(ds *core.DeviceStudy, csv bool) string {
	var b strings.Builder
	b.WriteString(TableI(ds, csv))
	b.WriteString("\n")
	b.WriteString(Figure1(ds, csv))
	b.WriteString("\n")
	b.WriteString(Figure3(ds, csv))
	b.WriteString("\n")
	b.WriteString(Figure4(ds, csv))
	b.WriteString("\n")
	b.WriteString(Figure5(ds, csv))
	b.WriteString("\n")
	b.WriteString(Figure6(ds, csv))
	b.WriteString("\n")
	b.WriteString(HiddenDUE(ds, csv))
	b.WriteString("\n")
	b.WriteString(ResidencyTable(ds, csv))
	b.WriteString("\n")
	b.WriteString(DUEGapTable(ds, csv))
	b.WriteString("\n")
	b.WriteString(DUETable(ds, csv))
	b.WriteString("\n")
	b.WriteString(CrossValTable(ds, csv))
	b.WriteString("\n")
	b.WriteString(StudyBitBand(ds, csv))
	b.WriteString("\n")
	b.WriteString(OptTable(ds, csv))
	b.WriteString("\n")
	b.WriteString(OptPressureTable(ds, csv))
	b.WriteString("\n")
	b.WriteString(PatternsTable(ds, csv))
	b.WriteString("\n")
	b.WriteString(TwoLevelTable(ds, csv))
	b.WriteString("\n")
	b.WriteString(DUEModesTable(ds, csv))
	return b.String()
}

// dueModesRow appends one typed-DUE ledger row: the DUE count and the
// normalized mode shares. Ledgers with no DUEs are omitted.
func dueModesRow(t *table, code, model string, l patterns.DUELedger) {
	n := l.DUEs()
	if n == 0 {
		return
	}
	mix := l.Mix()
	t.add(code, model,
		fmt.Sprintf("%d", n),
		fmt.Sprintf("%.3f", mix.Hang),
		fmt.Sprintf("%.3f", mix.IllegalAddress),
		fmt.Sprintf("%.3f", mix.SyncError),
		fmt.Sprintf("%.3f", mix.Unattributed))
}

// DUEModesTable renders the DUE-mode taxonomy per workload: the static
// analyzer's proven mode shares (model column "static"; the dues column
// shows its site count) next to each campaign's typed-DUE ledger
// normalized over its DUE trials. Rows with no DUEs are omitted; beam
// rows carry the ECC state in the model column.
func DUEModesTable(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"code", "model", "dues", "hang",
		"illegal-addr", "sync-err", "unattr"}}
	tools := []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI}
	for _, name := range suiteOrder(ds) {
		if e, ok := ds.StaticDUEModes[name]; ok && e != nil && e.DUEMass > 0 {
			t.add(name, "static",
				fmt.Sprintf("%d", e.Sites),
				fmt.Sprintf("%.3f", e.Share(analysis.ModeHang)),
				fmt.Sprintf("%.3f", e.Share(analysis.ModeIllegalAddress)),
				fmt.Sprintf("%.3f", e.Share(analysis.ModeSyncError)),
				fmt.Sprintf("%.3f", e.Share(analysis.ModeUnattributed)))
		}
		for _, tool := range tools {
			if r, ok := ds.AVF[tool][name]; ok {
				dueModesRow(t, name, tool.String(), r.DUEModes)
			}
		}
		for _, ecc := range []bool{false, true} {
			if r, ok := ds.Beam[core.BeamKey{Code: name, ECC: ecc}]; ok {
				dueModesRow(t, name, "beam ECC "+eccLabel(ecc), r.DUEModes)
			}
		}
	}
	return finish(t, csv, fmt.Sprintf(
		"DUE-mode taxonomy on %s (static proven shares vs typed campaign DUEs; dues column is sites for the static rows)", ds.Dev.Name))
}

// DUEModeCrossValidation renders the static-vs-injection DUE-mode
// agreement table: both share distributions side by side, the
// L-infinity delta, and the tolerance verdict. Campaigns below
// faultinj.DUEModeMinDUEs typed DUEs are marked unmeasurable and agree
// vacuously.
func DUEModeCrossValidation(cvs []*faultinj.DUEModeCrossVal, csv bool) string {
	t := &table{header: []string{"code", "device",
		"st hang", "st ill", "st sync", "st unattr",
		"dyn hang", "dyn ill", "dyn sync", "dyn unattr",
		"delta", "dues", "within tol"}}
	for _, cv := range cvs {
		agree := "yes"
		switch {
		case !cv.Measurable():
			agree = "n/a"
		case !cv.Agrees():
			agree = "NO"
		}
		t.add(cv.Name, cv.Device,
			fmt.Sprintf("%.3f", cv.StaticMix.Hang),
			fmt.Sprintf("%.3f", cv.StaticMix.IllegalAddress),
			fmt.Sprintf("%.3f", cv.StaticMix.SyncError),
			fmt.Sprintf("%.3f", cv.StaticMix.Unattributed),
			fmt.Sprintf("%.3f", cv.DynamicMix.Hang),
			fmt.Sprintf("%.3f", cv.DynamicMix.IllegalAddress),
			fmt.Sprintf("%.3f", cv.DynamicMix.SyncError),
			fmt.Sprintf("%.3f", cv.DynamicMix.Unattributed),
			fmt.Sprintf("%.3f", cv.Delta()),
			fmt.Sprintf("%d", cv.DynamicDUEs),
			agree)
	}
	return finish(t, csv, fmt.Sprintf(
		"Static vs injection DUE-mode shares (L-inf tolerance %.2f, measurable at >= %d typed DUEs)",
		faultinj.DUEModeTolerance, faultinj.DUEModeMinDUEs))
}

// patternsRow appends one ledger row to the patterns table.
func patternsRow(t *table, code, model string, l patterns.Ledger) {
	if l.SDCs() == 0 {
		return
	}
	t.add(code, model,
		fmt.Sprintf("%d", l.SDCs()),
		fmt.Sprintf("%d", l.Single),
		fmt.Sprintf("%d", l.SameRow),
		fmt.Sprintf("%d", l.SameCol),
		fmt.Sprintf("%d", l.Block),
		fmt.Sprintf("%d", l.Scattered),
		fmt.Sprintf("%d", l.Critical),
		fmt.Sprintf("%d", l.Tolerable),
		fmt.Sprintf("%d", l.Unclassified))
}

// PatternsTable renders the SDC pattern taxonomy per workload and fault
// model: the spatial footprint (single element, same row, same column,
// aligned block, scattered) and the magnitude band (critical vs
// tolerable) of every SDC each campaign produced. Rows with no SDCs are
// omitted; beam rows carry the ECC state in the model column.
func PatternsTable(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"code", "model", "sdc", "single", "same-row",
		"same-col", "block", "scattered", "critical", "tolerable", "uncls"}}
	tools := []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI}
	for _, name := range suiteOrder(ds) {
		for _, tool := range tools {
			if r, ok := ds.AVF[tool][name]; ok {
				patternsRow(t, name, tool.String(), r.Patterns)
			}
		}
		for _, ecc := range []bool{false, true} {
			if r, ok := ds.Beam[core.BeamKey{Code: name, ECC: ecc}]; ok {
				patternsRow(t, name, "beam ECC "+eccLabel(ecc), r.Patterns)
			}
		}
	}
	return finish(t, csv, fmt.Sprintf(
		"SDC pattern taxonomy on %s (spatial footprint and magnitude per fault model)", ds.Dev.Name))
}

// TwoLevelTable renders the two-level estimator against the exhaustive
// NVBitFI campaigns: the propagated SDC/DUE AVFs, the signed SDC delta,
// trials spent on each side, the resulting speedup, and whether the
// delta sits inside the documented tolerance.
func TwoLevelTable(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{"code", "exact SDC", "2-level SDC", "delta",
		"exact DUE", "2-level DUE", "sites", "trials", "exact n", "speedup",
		"critical frac", "within tol"}}
	for _, name := range suiteOrder(ds) {
		tl, ok := ds.TwoLevel[name]
		if !ok {
			continue
		}
		exact, ok := ds.AVF[faultinj.NVBitFI][name]
		if !ok {
			continue
		}
		agree := "yes"
		if !tl.Agrees(exact) {
			agree = "NO"
		}
		t.add(name,
			fmt.Sprintf("%.3f", exact.SDCAVF.P),
			fmt.Sprintf("%.3f", tl.SDCAVF),
			fmt.Sprintf("%+.3f", tl.Delta(exact)),
			fmt.Sprintf("%.3f", exact.DUEAVF.P),
			fmt.Sprintf("%.3f", tl.DUEAVF),
			fmt.Sprintf("%d", tl.Sites),
			fmt.Sprintf("%d", tl.Trials),
			fmt.Sprintf("%d", exact.Injected),
			fmt.Sprintf("%.1fx", tl.Speedup(exact)),
			fmt.Sprintf("%.3f", tl.Patterns.Critical),
			agree)
	}
	return finish(t, csv, fmt.Sprintf(
		"Two-level propagation vs exhaustive NVBitFI on %s (tolerance ±%.2f)",
		ds.Dev.Name, faultinj.TwoLevelTolerance))
}

// OptTable renders the cross-section-vs-optimization matrix of one
// device: per (code, configuration), the measured and static unmasked
// AVFs, the per-configuration Eq. 1-4 FIT predictions, and the static
// explanation columns — mean live-range length, spill exposure, ACE
// mass — that account for the movement. The ordering column carries the
// matrix-level static-vs-injection agreement (concordant/discordant
// pairs at the documented tie width), repeated per row for CSV use.
func OptTable(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{
		"code", "config", "instrs", "dyn unmasked", "static unmasked",
		"pred SDC FIT", "pred DUE FIT", "mean live-range", "spill exposure",
		"ACE mass", "ordering"}}
	for _, name := range suiteOrder(ds) {
		m, ok := ds.OptMatrix[name]
		if !ok {
			continue
		}
		c, d := m.OrderingAgreement(faultinj.OptOrderingEps)
		ord := fmt.Sprintf("%dc/%dd", c, d)
		if d > 0 {
			ord += " DISAGREE"
		}
		for _, cell := range m.Cells {
			t.add(name, cell.Opt.String(),
				fmt.Sprintf("%d", cell.Explain.Instrs),
				fmt.Sprintf("%.3f", cell.DynamicUnmasked()),
				fmt.Sprintf("%.3f", cell.StaticUnmasked()),
				fmt.Sprintf("%.4g", cell.PredSDCFIT),
				fmt.Sprintf("%.4g", cell.PredDUEFIT),
				fmt.Sprintf("%.1f", cell.Explain.MeanLiveRange),
				fmt.Sprintf("%d", cell.Explain.SpillExposure),
				fmt.Sprintf("%.0f", cell.Explain.ACEMass),
				ord)
		}
	}
	return finish(t, csv, fmt.Sprintf("Cross section vs optimization — %s", ds.Dev.Name))
}

// OptPressureTable renders the AVF-vs-register-pressure view of the
// same matrix: per (code, configuration), register demand, live-
// register pressure, and the spill-window statistics, against both AVF
// views — the table behind the spill variant's residency story.
func OptPressureTable(ds *core.DeviceStudy, csv bool) string {
	t := &table{header: []string{
		"code", "config", "regs", "mean pressure", "max pressure",
		"spill pairs", "spill exposure", "mean spill gap",
		"dyn unmasked", "static unmasked"}}
	for _, name := range suiteOrder(ds) {
		m, ok := ds.OptMatrix[name]
		if !ok {
			continue
		}
		for _, cell := range m.Cells {
			t.add(name, cell.Opt.String(),
				fmt.Sprintf("%d", cell.Explain.Regs),
				fmt.Sprintf("%.2f", cell.Explain.MeanPressure),
				fmt.Sprintf("%d", cell.Explain.MaxPressure),
				fmt.Sprintf("%d", cell.Explain.SpillPairs),
				fmt.Sprintf("%d", cell.Explain.SpillExposure),
				fmt.Sprintf("%.1f", cell.Explain.MeanSpillGap),
				fmt.Sprintf("%.3f", cell.DynamicUnmasked()),
				fmt.Sprintf("%.3f", cell.StaticUnmasked()))
		}
	}
	return finish(t, csv, fmt.Sprintf("AVF vs register pressure — %s", ds.Dev.Name))
}

// OptMatrixSweep renders standalone matrices (`gpurel ablate
// -opt-matrix`) without a full device study: AVF views plus the
// full explainer per cell.
func OptMatrixSweep(ms []*faultinj.OptMatrix, csv bool) string {
	t := &table{header: []string{
		"device", "code", "config", "instrs", "regs", "dyn unmasked",
		"static unmasked", "mean live-range", "max live-range",
		"mean pressure", "spill exposure", "ACE mass", "dead-bit mass", "tau"}}
	for _, m := range ms {
		tau := m.OrderingTau(faultinj.OptOrderingEps)
		for _, cell := range m.Cells {
			t.add(m.Device, m.Name, cell.Opt.String(),
				fmt.Sprintf("%d", cell.Explain.Instrs),
				fmt.Sprintf("%d", cell.Explain.Regs),
				fmt.Sprintf("%.3f", cell.DynamicUnmasked()),
				fmt.Sprintf("%.3f", cell.StaticUnmasked()),
				fmt.Sprintf("%.1f", cell.Explain.MeanLiveRange),
				fmt.Sprintf("%d", cell.Explain.MaxLiveRange),
				fmt.Sprintf("%.2f", cell.Explain.MeanPressure),
				fmt.Sprintf("%d", cell.Explain.SpillExposure),
				fmt.Sprintf("%.0f", cell.Explain.ACEMass),
				fmt.Sprintf("%.0f", cell.Explain.DeadBitMass),
				fmt.Sprintf("%.2f", tau))
		}
	}
	return finish(t, csv, "Optimization-matrix sweep")
}

func finish(t *table, csv bool, title string) string {
	var b strings.Builder
	if csv {
		t.csv(&b)
		return b.String()
	}
	b.WriteString(title + "\n")
	t.render(&b)
	return b.String()
}

func fmtBytes(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%.1fKB", float64(n)/1024)
	}
	return fmt.Sprintf("%dB", n)
}

func eccLabel(ecc bool) string {
	if ecc {
		return "ON"
	}
	return "OFF"
}

// Devices returns the display devices in paper order.
func Devices(s *core.Study) []*core.DeviceStudy {
	return []*core.DeviceStudy{s.Kepler, s.Volta}
}

// CrossValidation renders the static-versus-injection AVF comparison
// emitted by `gpurel lint -gate crossval`: one row per workload with
// both unmasked AVF views, the delta, and whether the static view sits
// inside the documented tolerance.
func CrossValidation(cvs []*faultinj.CrossValidation, csv bool) string {
	t := &table{header: []string{
		"code", "tool", "static SDC", "static DUE", "static unmasked",
		"dyn SDC", "dyn DUE", "dyn unmasked",
		"delta", "within tol", "faults"}}
	for _, cv := range cvs {
		agree := "yes"
		if !cv.Agrees() {
			agree = "NO"
		}
		t.add(cv.Name, cv.Tool.String(),
			fmt.Sprintf("%.3f", cv.Static.SDC),
			fmt.Sprintf("%.3f", cv.Static.DUE),
			fmt.Sprintf("%.3f", cv.StaticUnmasked()),
			fmt.Sprintf("%.3f", cv.Dynamic.SDCAVF.P),
			fmt.Sprintf("%.3f", cv.Dynamic.DUEAVF.P),
			fmt.Sprintf("%.3f", cv.DynamicUnmasked()),
			fmt.Sprintf("%+.3f", cv.Delta()),
			agree,
			fmt.Sprintf("%d", cv.Dynamic.Injected))
	}
	return finish(t, csv, fmt.Sprintf(
		"Static vs injection AVF (tolerance ±%.2f)", faultinj.CrossValTolerance))
}

// BitBandTable renders the per-bit-band agreement tables: for each
// workload, the bit-resolved static unmasked estimate per width-
// relative band against the measured unmasked AVF of the fired
// value-bit trials landing in that band.
func BitBandTable(cvs []*faultinj.CrossValidation, csv bool) string {
	t := &table{header: []string{
		"code", "tool", "band", "static unmasked", "dyn unmasked", "delta", "faults"}}
	for _, cv := range cvs {
		for _, row := range cv.BandTable() {
			t.add(cv.Name, cv.Tool.String(), row.Band.String(),
				fmt.Sprintf("%.3f", row.Static),
				fmt.Sprintf("%.3f", row.Dynamic),
				fmt.Sprintf("%+.3f", row.Delta()),
				fmt.Sprintf("%d", row.Injected))
		}
	}
	return finish(t, csv,
		"Static vs injection AVF by bit band (low/mid/high thirds + sign of the destination window)")
}

// studyCrossVals pairs each NVBitFI campaign stored in a device study
// with its persisted static estimates, in sorted code order so the
// rendered artifact is byte-stable.
func studyCrossVals(ds *core.DeviceStudy) []*faultinj.CrossValidation {
	byCode := ds.AVF[faultinj.NVBitFI]
	var names []string
	for name := range byCode {
		if ds.StaticAVF[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	cvs := make([]*faultinj.CrossValidation, 0, len(names))
	for _, name := range names {
		cvs = append(cvs, &faultinj.CrossValidation{
			Name: name, Tool: faultinj.NVBitFI, Device: ds.Dev.Name,
			Static: ds.StaticAVF[name], Dynamic: byCode[name],
		})
	}
	return cvs
}

// CrossValTable renders the study's static-vs-injection table from the
// estimates and campaigns the study already holds (no extra runs).
func CrossValTable(ds *core.DeviceStudy, csv bool) string {
	return CrossValidation(studyCrossVals(ds), csv)
}

// StudyBitBand renders the study's per-bit-band agreement table.
func StudyBitBand(ds *core.DeviceStudy, csv bool) string {
	return BitBandTable(studyCrossVals(ds), csv)
}

// HiddenCrossValidation renders the static- and measured-versus-beam
// hidden-resource DUE comparison: each model's P(DUE | hidden strike)
// against the beam campaign's measured hidden DUE fraction, per
// workload. The measured model is held to the tighter tolerance.
func HiddenCrossValidation(cvs []*faultinj.HiddenCrossValidation, csv bool) string {
	t := &table{header: []string{"code", "device", "static P(DUE|h)", "meas P(DUE|h)",
		"beam P(DUE|h)", "delta (static)", "delta (meas)", "within tol", "hidden strikes"}}
	for _, cv := range cvs {
		agree := "yes"
		if !cv.Agrees() || !cv.MeasuredAgrees() {
			agree = "NO"
		}
		t.add(cv.Name, cv.Device,
			fmt.Sprintf("%.3f", cv.StaticDUEGivenStrike()),
			fmt.Sprintf("%.3f", cv.MeasuredDUEGivenStrike()),
			fmt.Sprintf("%.3f", cv.BeamDUEGivenStrike()),
			fmt.Sprintf("%+.3f", cv.Delta()),
			fmt.Sprintf("%+.3f", cv.MeasuredDelta()),
			agree,
			fmt.Sprintf("%d", cv.Beam.HiddenStrikes()))
	}
	return finish(t, csv, fmt.Sprintf(
		"Static/measured vs beam hidden-resource DUE (tolerance ±%.2f static, ±%.2f measured)",
		faultinj.HiddenCrossValTolerance, faultinj.MeasuredCrossValTolerance))
}
