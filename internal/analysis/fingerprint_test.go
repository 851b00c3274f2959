package analysis_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"gpurel/internal/analysis"
	"gpurel/internal/asm"
	"gpurel/internal/device"
	"gpurel/internal/suite"
)

// backwardFingerprint hashes the backward solver's per-bit output for
// every distinct launch of both devices' suites at the given opt
// levels: per site its Width, then per bit SDC, DUE and the four DUE
// mode channels, as little-endian IEEE bit patterns. Any drift — down
// to one ULP on one bit of one site — changes the hash, which the
// rounded out/ tables cannot catch.
func backwardFingerprint(t *testing.T, opts []asm.OptLevel) (progs, sites int, sum string) {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	type launchKey struct {
		name                  string
		gridX, gridY, threads int
	}
	for _, dev := range []*device.Device{device.K40c(), device.V100()} {
		for _, e := range suite.ForDevice(dev) {
			for _, opt := range opts {
				inst, err := e.Build(dev, opt)
				if err != nil {
					t.Fatalf("%s/%s %v: %v", dev.Name, e.Name, opt, err)
				}
				seen := map[launchKey]bool{}
				for _, l := range inst.Launches {
					k := launchKey{l.Prog.Name, l.GridX, l.GridY, l.BlockThreads}
					if seen[k] {
						continue
					}
					seen[k] = true
					r := analysis.AnalyzeLaunch(l.Prog, &analysis.Bounds{
						GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
					})
					progs++
					for i := range r.ACEVec {
						v, mv := &r.ACEVec[i], &r.DUEModeVec[i]
						sites++
						put(uint64(v.Width))
						for b := 0; b < v.Width; b++ {
							put(math.Float64bits(v.SDC[b]))
							put(math.Float64bits(v.DUE[b]))
							for m := range mv.Ch {
								put(math.Float64bits(mv.Ch[m][b]))
							}
						}
					}
				}
			}
		}
	}
	return progs, sites, hex.EncodeToString(h.Sum(nil))
}

// TestBackwardPassFingerprint pins the ACE and DUE-mode vectors bit for
// bit across the whole suite, so a refactor of the backward solver
// that moves any number by even one ULP fails here. The O2 pin always
// runs; the full optimization matrix (~15 s) skips under -short.
func TestBackwardPassFingerprint(t *testing.T) {
	pins := []struct {
		name         string
		opts         []asm.OptLevel
		progs, sites int
		sum          string
	}{
		{"O2", []asm.OptLevel{asm.O2}, 100, 6127,
			"2c09ce1d6952f028d42b7d7703303a192e42958677364186510134eb7df74181"},
		{"matrix", asm.MatrixConfigs(), 700, 56791,
			"e9145c31749892806858aab6b84de94187f686e09eb52c878ba37a6039a80e2b"},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			if pin.name == "matrix" && testing.Short() {
				t.Skip("full optimization matrix skipped under -short")
			}
			progs, sites, sum := backwardFingerprint(t, pin.opts)
			if progs != pin.progs || sites != pin.sites {
				t.Errorf("analyzed %d programs / %d sites, want %d / %d",
					progs, sites, pin.progs, pin.sites)
			}
			if sum != pin.sum {
				t.Errorf("backward-pass fingerprint = %s, want %s", sum, pin.sum)
			}
		})
	}
}
