package kernels

// LogEligible reports whether launch i of r is single-writer, so that
// its block log is Eligible, recording the log if need be.
func (r *Runner) LogEligible(i int) (bool, error) {
	bl, err := r.blockLog(i)
	return bl.Eligible(), err
}
