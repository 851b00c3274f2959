package analysis

import "gpurel/internal/isa"

// Static AVF estimation: aggregate per-instruction ACE fractions into
// the same shape the fault injectors measure dynamically — whole-program
// and per-instruction-class SDC/DUE AVFs — without running a single
// injection. The estimate for a site population is the weighted mean ACE
// over it (Mukherjee-style: AVF = sum of ACE bits / total bits).

// ClassEstimate aggregates one instruction class.
type ClassEstimate struct {
	Class  isa.Class
	Sites  int     // static instructions
	Weight float64 // total site weight (dynamic lane-ops when weighted)
	SDC    float64
	DUE    float64
}

// Unmasked returns the class's total propagation probability.
func (c *ClassEstimate) Unmasked() float64 { return c.SDC + c.DUE }

// BandEstimate aggregates one bit band (see BandOf): the weighted-mean
// per-bit ACE over every (site, bit) pair whose bit position falls in
// the band, with Weight the accumulated population share.
type BandEstimate struct {
	SDC    float64
	DUE    float64
	Weight float64
}

// Unmasked returns the band's total propagation probability.
func (b *BandEstimate) Unmasked() float64 { return b.SDC + b.DUE }

// Estimate is a whole-program static AVF.
type Estimate struct {
	Name  string
	Sites int
	// SDC / DUE are the weighted-mean ACE fractions over the site
	// population: the static counterparts of the injectors' SDC and DUE
	// AVFs. The bit-resolved estimator averages each site's per-bit
	// vector over its destination width, matching an injector that
	// flips a uniformly random destination bit.
	SDC float64
	DUE float64
	// DeadFraction is the weight share of sites whose result is
	// architecturally dead (ACE = 0): faults there are always masked.
	DeadFraction float64
	// BitSDC/BitDUE/BitWeight are the bit-position AVF profiles of the
	// bit-resolved estimator: per bit position, the weighted-mean ACE
	// over the sites whose destination window covers that bit, with
	// BitWeight the covering population weight.
	BitSDC    [64]float64
	BitDUE    [64]float64
	BitWeight [64]float64
	// Band buckets the same profile into width-relative bands, the
	// granularity the injection cross-validation compares at.
	Band     [BandCount]BandEstimate
	PerClass map[isa.Class]*ClassEstimate
}

// Unmasked returns the whole-program propagation probability.
func (e *Estimate) Unmasked() float64 { return e.SDC + e.DUE }

// Estimate aggregates the analysis into a bit-resolved static AVF over
// the sites matching filter (nil: every GPR-writing opcode, the
// NVBitFI-style injection population). weights gives per-instruction
// site weights (nil: uniform static weighting); use OpWeights to weight
// by a dynamic profile.
func (r *Result) Estimate(weights []float64, filter func(isa.Op) bool) *Estimate {
	est := &Estimate{Name: r.Prog.Name, PerClass: make(map[isa.Class]*ClassEstimate)}
	var totalW, sdcW, dueW, deadW float64
	for i := range r.Prog.Instrs {
		in := &r.Prog.Instrs[i]
		if filter == nil {
			if !in.Op.WritesGPR() {
				continue
			}
		} else if !filter(in.Op) {
			continue
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if w <= 0 {
			continue
		}
		est.Sites++
		totalW += w
		v := &r.ACEVec[i]
		siteSDC, siteDUE := v.MeanSDC(), v.MeanDUE()
		if width := v.Width; width > 0 {
			bw := w / float64(width)
			for b := 0; b < width; b++ {
				est.BitSDC[b] += w * v.SDC[b]
				est.BitDUE[b] += w * v.DUE[b]
				est.BitWeight[b] += w
				band := &est.Band[BandOf(b, width)]
				band.SDC += bw * v.SDC[b]
				band.DUE += bw * v.DUE[b]
				band.Weight += bw
			}
		}
		sdcW += w * siteSDC
		dueW += w * siteDUE
		if v.Dead() {
			deadW += w
		}
		ce := est.PerClass[in.Op.ClassOf()]
		if ce == nil {
			ce = &ClassEstimate{Class: in.Op.ClassOf()}
			est.PerClass[in.Op.ClassOf()] = ce
		}
		ce.Sites++
		ce.Weight += w
		ce.SDC += w * siteSDC
		ce.DUE += w * siteDUE
	}
	if totalW > 0 {
		est.SDC = sdcW / totalW
		est.DUE = dueW / totalW
		est.DeadFraction = deadW / totalW
	}
	for b := 0; b < 64; b++ {
		if est.BitWeight[b] > 0 {
			est.BitSDC[b] /= est.BitWeight[b]
			est.BitDUE[b] /= est.BitWeight[b]
		}
	}
	for k := range est.Band {
		if est.Band[k].Weight > 0 {
			est.Band[k].SDC /= est.Band[k].Weight
			est.Band[k].DUE /= est.Band[k].Weight
		}
	}
	for _, ce := range est.PerClass {
		if ce.Weight > 0 {
			ce.SDC /= ce.Weight
			ce.DUE /= ce.Weight
		}
	}
	return est
}

// OpWeights spreads a dynamic per-opcode lane-op profile uniformly over
// the static instances of each opcode, approximating per-site dynamic
// execution counts. Sites whose opcode never executed get weight 0.
func (r *Result) OpWeights(perOp map[isa.Op]uint64) []float64 {
	static := make(map[isa.Op]int)
	for i := range r.Prog.Instrs {
		static[r.Prog.Instrs[i].Op]++
	}
	w := make([]float64, len(r.Prog.Instrs))
	for i := range r.Prog.Instrs {
		op := r.Prog.Instrs[i].Op
		if c := static[op]; c > 0 {
			w[i] = float64(perOp[op]) / float64(c)
		}
	}
	return w
}

// DeadFraction analyzes the program and returns the fraction of its
// GPR-writing instructions whose results are architecturally dead — the
// §VI metric separating the two compiler pipelines.
func DeadFraction(p *isa.Program) float64 {
	return Analyze(p).Estimate(nil, nil).DeadFraction
}
