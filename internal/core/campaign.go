package core

import (
	"fmt"

	"gpurel/internal/asm"
	"gpurel/internal/beam"
	"gpurel/internal/device"
	"gpurel/internal/faultinj"
	"gpurel/internal/kernels"
	"gpurel/internal/microbench"
	"gpurel/internal/suite"
)

// The study's campaigns, one function per kind, each sized and seeded
// from Options as RunDevice runs it; workers bounds the campaign's own
// parallelism, and each returns the runner it took from cache.

// Injectors lists the tools that instrument dev, in Figure-4 order:
// SASSIFI and NVBitFI on Kepler, NVBitFI elsewhere. The first measures
// the micro-benchmark AVFs.
func Injectors(dev *device.Device) []faultinj.Tool {
	var tools []faultinj.Tool
	for _, t := range []faultinj.Tool{faultinj.Sassifi, faultinj.NVBitFI} {
		if t.Instruments(dev) == nil {
			tools = append(tools, t)
		}
	}
	return tools
}

// Injectable reports why tool cannot instrument e on dev, or nil when it
// can (§III-D, §VI): SASSIFI instruments Kepler only, no injector
// instruments proprietary-library code on Kepler, and neither injects
// into half-precision code. With Injectors, it is the one rule for which
// injection campaigns exist.
func Injectable(dev *device.Device, tool faultinj.Tool, e suite.Entry) error {
	if err := tool.Instruments(dev); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	switch {
	case dev.Arch == device.Kepler && e.Library:
		return fmt.Errorf("core: no injector instruments proprietary-library code %s on Kepler", e.Name)
	case e.FP16:
		return fmt.Errorf("core: %s cannot inject into half-precision code %s", tool, e.Name)
	}
	return nil
}

// InjectCampaign runs the study's injection campaign of tool on e
// (Figure 4): opts.SassifiPerClass faults per instruction class for
// SASSIFI, opts.NVBitFITotal faults for NVBitFI, on the runner built at
// the tool's pipeline. A campaign Injectable rules out is an error.
func InjectCampaign(dev *device.Device, tool faultinj.Tool, e suite.Entry, opts Options, workers int, cache *kernels.Cache) (*faultinj.Result, *kernels.Runner, error) {
	if err := Injectable(dev, tool, e); err != nil {
		return nil, nil, err
	}
	opts.defaults()
	r, err := cache.Get(e.Name, e.Build, dev, tool.OptLevel())
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s on %s: %w", tool, e.Name, err)
	}
	res, err := faultinj.RunWithRunner(faultinj.Config{
		Tool: tool, FaultsPerClass: opts.SassifiPerClass,
		TotalFaults: opts.NVBitFITotal, Workers: workers,
		Seed: opts.Seed ^ hash(e.Name) ^ uint64(tool),
	}, r)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s on %s: %w", tool, e.Name, err)
	}
	return res, r, nil
}

// BeamCampaign runs the study's beam campaign of e at one ECC state
// (Figure 5): opts.CodeTrials trials.
func BeamCampaign(dev *device.Device, e suite.Entry, ecc bool, opts Options, workers int, cache *kernels.Cache) (*beam.Result, *kernels.Runner, error) {
	opts.defaults()
	return beamCampaign(dev, e.Name, e.Build, beam.Config{
		ECC: ecc, Trials: opts.CodeTrials, Workers: workers,
		Seed: opts.Seed ^ hash(e.Name) ^ boolBit(ecc),
	}, cache)
}

// MicroBeamCampaign runs the study's beam campaign of micro-benchmark m
// (Figure 3): opts.MicroTrials trials with ECC on, except for RF, whose
// stored bits are the unit under test (§V-B).
func MicroBeamCampaign(dev *device.Device, m microbench.Micro, opts Options, workers int, cache *kernels.Cache) (*beam.Result, *kernels.Runner, error) {
	opts.defaults()
	return beamCampaign(dev, m.Name, m.Build, beam.Config{
		ECC: m.Name != "RF", Trials: opts.MicroTrials, Workers: workers,
		Seed: opts.Seed ^ hash(m.Name),
	}, cache)
}

// beamCampaign runs cfg on the workload's runner built at O2.
func beamCampaign(dev *device.Device, name string, build kernels.Builder, cfg beam.Config, cache *kernels.Cache) (*beam.Result, *kernels.Runner, error) {
	r, err := cache.Get(name, build, dev, asm.O2)
	if err != nil {
		return nil, nil, fmt.Errorf("core: beam %s: %w", name, err)
	}
	res, err := beam.Run(cfg, r)
	if err != nil {
		return nil, nil, fmt.Errorf("core: beam %s ecc=%v: %w", name, cfg.ECC, err)
	}
	return res, r, nil
}

// MatrixRunners returns e's runners at every optimization-matrix
// configuration, in asm.MatrixConfigs order.
func MatrixRunners(dev *device.Device, e suite.Entry, cache *kernels.Cache) ([]*kernels.Runner, error) {
	var runners []*kernels.Runner
	for _, opt := range asm.MatrixConfigs() {
		r, err := cache.Get(e.Name, e.Build, dev, opt)
		if err != nil {
			return nil, fmt.Errorf("core: opt matrix %s at %s: %w", e.Name, opt, err)
		}
		runners = append(runners, r)
	}
	return runners, nil
}

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1 << 40
	}
	return 0
}
