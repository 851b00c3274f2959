package lintgo

// Nondeterminism-source check. The campaign pipeline promises bitwise
// reproducibility from a seed: every stochastic draw goes through
// stats.RNG and every artifact byte is a pure function of the study
// inputs. A stray time.Now() feeding a decision, or an ambient
// math/rand generator, silently breaks that promise in ways the unit
// tests rarely catch (they pass; the artifact drift gate fails a week
// later). This check bans the two ambient sources from the packages
// that carry the determinism contract.
//
// Matching is syntactic, like the sink matching of the map-iteration
// check: an import of a banned path is flagged at the import line, and
// a `time.Now` selector call is flagged at the call site. Packages may
// be granted partial exemptions — internal/stats owns the sanctioned
// math/rand/v2 wrapper, and internal/serve legitimately reads the
// clock for elapsed-time bookkeeping that never feeds a sampling
// decision or a persisted artifact.
//
// The same packages, and the runner and study layers (internal/kernels,
// internal/core), may not start goroutines of their own: a `go`
// statement is flagged at the statement. Their parallelism goes through
// par.ForEach, whose results land by index and whose error is the
// lowest failing index, so a hand-written pool cannot reintroduce
// completion-order results or first-in-time errors. internal/serve
// stays exempt for its campaign lifecycles (`go c.run()`).
//
// The campaign, beam, pattern and profiling layers and the study and
// daemon layers may not build runners: a `kernels.NewRunner` selector
// call is flagged at the call. The first four take the runner their
// caller built; core and serve get theirs from a kernels.Cache. A
// second runner for a workload the caller already built pays its golden
// run again and can drift from the caller's view of the same code.
//
// Commands and examples may not calibrate the predictor themselves: a
// `fit.FromMicroResults` selector call is flagged at the call. They take
// their unit FITs from core.Calibrate, so every prediction de-masks by
// the same measured micro AVFs as the study's. Commands (not examples,
// whose campaigns are illustrative) also may not call `beam.Run`: they
// take the study's beam campaigns from core.

import (
	"fmt"
	"go/ast"
	"strings"
)

// nondetBan describes which ambient nondeterminism sources are banned
// in one package subtree.
type nondetBan struct {
	timeNow   bool // ban time.Now call sites
	mathRand  bool // ban math/rand and math/rand/v2 imports
	goStmt    bool // ban go statements
	newRunner bool // ban kernels.NewRunner calls
	fromMicro bool // ban fit.FromMicroResults calls
	beamRun   bool // ban beam.Run calls
}

// nondetBans maps module-relative package directories (prefix-matched,
// so subpackages inherit the ban) to the sources banned there.
var nondetBans = map[string]nondetBan{
	// The simulator, injectors, classifiers, and beam campaigns are the
	// deterministic replay core: all randomness must come through
	// stats.RNG, and nothing in them may consult the wall clock.
	"internal/sim":      {timeNow: true, mathRand: true, goStmt: true},
	"internal/faultinj": {timeNow: true, mathRand: true, goStmt: true, newRunner: true},
	"internal/patterns": {timeNow: true, mathRand: true, goStmt: true, newRunner: true},
	"internal/beam":     {timeNow: true, mathRand: true, goStmt: true, newRunner: true},
	// The profiler measures the runner it is given.
	"internal/profiler": {newRunner: true},
	// The runner layer and the study orchestrator parallelize only
	// through par.ForEach; the orchestrator gets runners from its cache.
	"internal/kernels": {goStmt: true},
	"internal/core":    {goStmt: true, newRunner: true},
	// stats owns the sanctioned math/rand/v2 wrapper (stats.RNG), so
	// only the clock is banned there.
	"internal/stats": {timeNow: true},
	// The campaign daemon reads the clock for elapsed-time bookkeeping
	// (progress, metrics) but must never sample from an ambient
	// generator: its trial sharding is seed-derived. Its runners come
	// from the shared cache.
	"internal/serve": {mathRand: true, newRunner: true},
	// Commands and examples predict from the study's calibration;
	// commands also run the study's beam campaigns.
	"cmd":      {fromMicro: true, beamRun: true},
	"examples": {fromMicro: true},
}

// nondetBanFor returns the ban covering a module-relative package
// directory, if any.
func nondetBanFor(rel string) (nondetBan, bool) {
	for prefix, ban := range nondetBans {
		if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
			return ban, true
		}
	}
	return nondetBan{}, false
}

// scanNondet flags banned nondeterminism sources in one file.
func (c *checker) scanNondet(f *ast.File, ban nondetBan) []Finding {
	var out []Finding
	if ban.mathRand {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				out = append(out, Finding{
					Pos: c.fset.Position(imp.Pos()),
					Message: fmt.Sprintf("deterministic package imports %s; draw from *stats.RNG instead (seeded, splittable)",
						path),
				})
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if ban.goStmt {
				out = append(out, Finding{
					Pos: c.fset.Position(n.Pos()),
					Message: "deterministic package starts a goroutine; run index-addressed work through par.ForEach" +
						" (results land by index, the error is the lowest failing index)",
				})
			}
		case *ast.CallExpr:
			if ban.timeNow && isSelectorCall(n, "time", "Now") {
				out = append(out, Finding{
					Pos: c.fset.Position(n.Pos()),
					Message: "deterministic package calls time.Now; campaign behavior must be a pure function of the seed" +
						" (clock reads belong in the daemon/CLI layers)",
				})
			}
			if ban.newRunner && isSelectorCall(n, "kernels", "NewRunner") {
				out = append(out, Finding{
					Pos: c.fset.Position(n.Pos()),
					Message: "package builds its own runner; take the *kernels.Runner the caller built," +
						" or get one from a kernels.Cache (one golden run per workload)",
				})
			}
			if ban.fromMicro && isSelectorCall(n, "fit", "FromMicroResults") {
				out = append(out, Finding{
					Pos: c.fset.Position(n.Pos()),
					Message: "package calibrates the predictor itself; take the unit FITs from core.Calibrate" +
						" (the study's micro campaigns and measured micro AVFs)",
				})
			}
			if ban.beamRun && isSelectorCall(n, "beam", "Run") {
				out = append(out, Finding{
					Pos: c.fset.Position(n.Pos()),
					Message: "command runs its own beam campaign; take it from core.BeamCampaign or" +
						" core.MicroBeamCampaign (sized and seeded as the study's)",
				})
			}
		}
		return true
	})
	return out
}

// isSelectorCall reports whether call is a `pkg.name(...)` selector
// call.
func isSelectorCall(call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
}
