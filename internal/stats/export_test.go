package stats

// Test hooks for the unexported special functions.
var (
	NormalQuantile = normalQuantile
	RegGammaP      = regGammaP
)
