package kernels

import (
	"testing"

	"gpurel/internal/sim"
)

// BlockLog returns launch i's block log, recording it if need be.
func (r *Runner) BlockLog(i int) (*sim.BlockLog, error) { return r.blockLog(i) }

// RunTrialSeen is RunTrialWithFault handing each launch step's result
// to seen.
func (r *Runner) RunTrialSeen(plan *sim.FaultPlan, faultLaunch int, seen func(launch int, res sim.Result)) (TrialRecord, error) {
	return r.runTrial(plan, faultLaunch, seen)
}

// RunWithFaultFull is the full re-simulation reference
// (runWithFaultFull).
func (r *Runner) RunWithFaultFull(t *testing.T, plan *sim.FaultPlan, faultLaunch int) TrialRecord {
	return runWithFaultFull(t, r, plan, faultLaunch)
}

// AskLogs makes every later trial of r take the log paths (askLogs).
func AskLogs(t testing.TB, r *Runner) { askLogs(t, r) }

// RedSumBuilder is the two-writer test kernel (redSumBuilder).
func RedSumBuilder() Builder { return redSumBuilder() }

// GatherBuilder is the two-reader gather test kernel (gatherBuilder).
func GatherBuilder() Builder { return gatherBuilder() }
