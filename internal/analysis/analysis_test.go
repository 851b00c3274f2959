package analysis

import (
	"testing"

	"gpurel/internal/isa"
)

// Hand-built instruction constructors. Every instruction defaults to an
// unconditional guard (PT) and RZ sources so that tests only read the
// registers they name.

func rr(n int) isa.Reg     { return isa.Reg(n) }
func pp(n int) isa.PredReg { return isa.PredReg(n) }

func raw(op isa.Op, dst isa.Reg, srcs ...isa.Reg) isa.Instr {
	in := isa.Instr{Op: op, Pred: isa.PT, DstP: isa.PT, Dst: dst,
		Srcs: [3]isa.Operand{isa.R(isa.RZ), isa.R(isa.RZ), isa.R(isa.RZ)}}
	for i, s := range srcs {
		in.Srcs[i] = isa.R(s)
	}
	return in
}

func movi(dst isa.Reg) isa.Instr       { return raw(isa.OpMOV32I, dst) }
func iadd(dst, a, b isa.Reg) isa.Instr { return raw(isa.OpIADD, dst, a, b) }
func imul(dst, a, b isa.Reg) isa.Instr { return raw(isa.OpIMUL, dst, a, b) }
func dadd(dst, a, b isa.Reg) isa.Instr { return raw(isa.OpDADD, dst, a, b) }
func exit() isa.Instr                  { return raw(isa.OpEXIT, isa.RZ) }
func syncInstr() isa.Instr             { return raw(isa.OpSYNC, isa.RZ) }

func stg(addr, val isa.Reg) isa.Instr {
	in := raw(isa.OpSTG, isa.RZ, addr)
	in.Srcs[1] = isa.Imm(0) // address offset
	in.Srcs[2] = isa.R(val)
	return in
}

func isetp(p isa.PredReg, a, b isa.Reg) isa.Instr {
	in := raw(isa.OpISETP, isa.RZ, a, b)
	in.DstP = p
	in.Cmp = isa.CmpLT
	return in
}

func bra(target int) isa.Instr {
	in := raw(isa.OpBRA, isa.RZ)
	in.Target = target
	return in
}

func braIf(p isa.PredReg, neg bool, target int) isa.Instr {
	in := bra(target)
	in.Pred, in.PredNeg = p, neg
	return in
}

func ssy(target int) isa.Instr {
	in := raw(isa.OpSSY, isa.RZ)
	in.Target = target
	return in
}

func guard(in isa.Instr, p isa.PredReg) isa.Instr {
	in.Pred = p
	return in
}

func wide(in isa.Instr) isa.Instr {
	in.Wide = true
	return in
}

func prog(name string, instrs ...isa.Instr) *isa.Program {
	return &isa.Program{Name: name, Instrs: instrs}
}

// kinds extracts the finding kinds at one severity, in report order.
func kinds(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Kind)
	}
	return out
}

func sameKinds(got []Finding, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i, f := range got {
		if f.Kind != want[i] {
			return false
		}
	}
	return true
}

// TestLintFindings drives the lint checks through small hand-built
// programs covering every diagnostic kind, plus clean shapes
// (straight-line, diamond, loop) that must produce nothing.
func TestLintFindings(t *testing.T) {
	cases := []struct {
		name      string
		prog      *isa.Program
		wantErrs  []string
		wantWarns []string
	}{
		{
			name: "straight-line dead chain",
			prog: prog("straight",
				movi(rr(0)),
				movi(rr(1)),
				iadd(rr(2), rr(0), rr(1)),
				exit(),
			),
			// R2 is never read. The operand moves die transitively too,
			// but liveness-based lint reports only the root cause; the
			// chain shows up in ACE/DeadFraction (TestACEPropagation).
			wantWarns: []string{KindDeadStore},
		},
		{
			name: "diamond is clean",
			prog: prog("diamond",
				movi(rr(0)),                 // 0: value
				movi(rr(1)),                 // 1: address
				isetp(pp(0), rr(0), isa.RZ), // 2
				ssy(8),                      // 3
				braIf(pp(0), true, 7),       // 4: @!P0 -> else
				iadd(rr(2), rr(0), rr(0)),   // 5: then
				bra(8),                      // 6
				imul(rr(2), rr(0), rr(0)),   // 7: else
				stg(rr(1), rr(2)),           // 8: join
				exit(),                      // 9
			),
		},
		{
			name: "counted loop is clean",
			prog: prog("loop",
				movi(rr(0)),                // i
				movi(rr(1)),                // acc
				movi(rr(2)),                // limit
				movi(rr(3)),                // out address
				iadd(rr(1), rr(1), rr(0)),  // 4: body
				iadd(rr(0), rr(0), isa.RZ), // 5: i++
				isetp(pp(0), rr(0), rr(2)), // 6
				braIf(pp(0), false, 4),     // 7
				stg(rr(3), rr(1)),          // 8
				exit(),                     // 9
			),
		},
		{
			name: "seeded dead store and use-before-def",
			prog: prog("seeded",
				movi(rr(0)),
				imul(rr(1), rr(0), rr(0)), // 1: dead
				iadd(rr(2), rr(3), rr(0)), // 2: R3 never written
				movi(rr(4)),               // 3: address
				stg(rr(4), rr(2)),         // 4
				exit(),
			),
			wantErrs:  []string{KindUseBeforeDef},
			wantWarns: []string{KindDeadStore},
		},
		{
			name: "guarded init is not use-before-def",
			prog: prog("guardedinit",
				isetp(pp(0), isa.RZ, isa.RZ),
				guard(movi(rr(5)), pp(0)), // predicated init
				movi(rr(1)),               // address
				stg(rr(1), rr(5)),         // optimistic: no finding
				exit(),
			),
		},
		{
			name: "unreachable block",
			prog: prog("unreach",
				movi(rr(0)),
				exit(),
				movi(rr(1)), // 2: unreachable — its dead store is not re-reported
				exit(),
			),
			wantErrs:  []string{KindUnreachable},
			wantWarns: []string{KindDeadStore}, // instruction 0 only
		},
		{
			name: "falls off the end",
			prog: prog("falloff",
				movi(rr(0)),
				isetp(pp(0), rr(0), isa.RZ),
				guard(exit(), pp(0)), // 2: conditional EXIT
				movi(rr(1)),          // 3: then nothing
			),
			wantErrs:  []string{KindFallOffEnd},
			wantWarns: []string{KindDeadStore},
		},
		{
			name: "ssy without divergent branch",
			prog: prog("ssynobra",
				ssy(2),
				movi(rr(0)),
				exit(),
			),
			wantErrs:  []string{KindSSYNoBranch},
			wantWarns: []string{KindDeadStore},
		},
		{
			name: "ssy backward target",
			prog: prog("ssyback",
				movi(rr(0)),
				ssy(0),
				exit(),
			),
			wantErrs:  []string{KindSSYBackward},
			wantWarns: []string{KindDeadStore},
		},
		{
			name: "sync outside every ssy region",
			prog: prog("syncfree",
				movi(rr(0)),
				syncInstr(),
				exit(),
			),
			wantErrs:  []string{KindSyncNoRegion},
			wantWarns: []string{KindDeadStore},
		},
		{
			name: "branch splits an f64 pair initialization",
			prog: prog("pairsplit",
				movi(rr(0)),
				isetp(pp(0), rr(0), isa.RZ),
				movi(rr(2)),               // 2: pair lo
				movi(rr(3)),               // 3: pair hi
				dadd(rr(4), rr(2), rr(2)), // 4: consumes (R2,R3)
				braIf(pp(0), false, 3),    // 5: jumps between the halves
				movi(rr(6)),               // 6: address
				wide(stg(rr(6), rr(4))),   // 7
				exit(),
			),
			wantErrs: []string{KindPairSplitBra},
		},
		{
			name: "branch to the start of a pair run is fine",
			prog: prog("pairok",
				movi(rr(0)),
				isetp(pp(0), rr(0), isa.RZ),
				movi(rr(2)),
				movi(rr(3)),
				dadd(rr(4), rr(2), rr(2)),
				braIf(pp(0), false, 2), // re-runs the whole init
				movi(rr(6)),
				wide(stg(rr(6), rr(4))),
				exit(),
			),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Analyze(tc.prog)
			if errs := r.Errors(); !sameKinds(errs, tc.wantErrs) {
				t.Errorf("errors: got %v, want %v\n%v", kinds(errs), tc.wantErrs, errs)
			}
			if warns := r.Warnings(); !sameKinds(warns, tc.wantWarns) {
				t.Errorf("warnings: got %v, want %v\n%v", kinds(warns), tc.wantWarns, warns)
			}
		})
	}
}

// TestCFGShapes pins the block partition and edges for the three
// canonical shapes.
func TestCFGShapes(t *testing.T) {
	diamond := prog("diamond",
		movi(rr(0)), movi(rr(1)), isetp(pp(0), rr(0), isa.RZ),
		ssy(8), braIf(pp(0), true, 7),
		iadd(rr(2), rr(0), rr(0)), bra(8),
		imul(rr(2), rr(0), rr(0)),
		stg(rr(1), rr(2)), exit(),
	)
	cfg := BuildCFG(diamond)
	if len(cfg.Blocks) != 4 {
		t.Fatalf("diamond blocks = %d, want 4", len(cfg.Blocks))
	}
	wantSuccs := [][]int{{2, 1}, {3}, {3}, nil}
	for i, b := range cfg.Blocks {
		if len(b.Succs) != len(wantSuccs[i]) {
			t.Errorf("block %d succs = %v, want %v", i, b.Succs, wantSuccs[i])
			continue
		}
		for j, s := range wantSuccs[i] {
			if b.Succs[j] != s {
				t.Errorf("block %d succs = %v, want %v", i, b.Succs, wantSuccs[i])
			}
		}
	}

	loop := prog("loop",
		movi(rr(0)), movi(rr(1)),
		iadd(rr(1), rr(1), rr(0)), // 2: loop leader
		isetp(pp(0), rr(1), rr(0)),
		braIf(pp(0), false, 2),
		stg(rr(0), rr(1)), exit(),
	)
	cfg = BuildCFG(loop)
	if len(cfg.Blocks) != 3 {
		t.Fatalf("loop blocks = %d, want 3", len(cfg.Blocks))
	}
	b1 := cfg.Blocks[1]
	if len(b1.Succs) != 2 || b1.Succs[0] != 1 || b1.Succs[1] != 2 {
		t.Errorf("loop block 1 succs = %v, want [1 2] (back edge + exit)", b1.Succs)
	}

	straight := prog("straight", movi(rr(0)), stg(isa.RZ, rr(0)), exit())
	cfg = BuildCFG(straight)
	if len(cfg.Blocks) != 1 || len(cfg.Blocks[0].Succs) != 0 {
		t.Errorf("straight-line CFG: blocks=%d succs=%v, want one terminal block",
			len(cfg.Blocks), cfg.Blocks[0].Succs)
	}
}

// TestLivenessSpans checks that multi-register values (F64 pairs via
// wide loads and stores) are tracked register-by-register.
func TestLivenessSpans(t *testing.T) {
	p := prog("pairs",
		movi(rr(0)),                        // 0: address
		wide(raw(isa.OpLDG, rr(2), rr(0))), // 1: loads R2,R3
		dadd(rr(4), rr(2), rr(2)),          // 2: reads R2,R3; writes R4,R5
		movi(rr(6)),                        // 3: address
		wide(stg(rr(6), rr(4))),            // 4: stores R4,R5
		exit(),
	)
	r := Analyze(p)
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if warns := r.Warnings(); len(warns) != 0 {
		t.Fatalf("unexpected warnings: %v", warns)
	}
	for _, reg := range []isa.Reg{rr(2), rr(3)} {
		if !r.LiveOut[1].Has(reg) {
			t.Errorf("%s not live out of the wide load", reg)
		}
	}
	for _, reg := range []isa.Reg{rr(4), rr(5)} {
		if !r.LiveOut[2].Has(reg) {
			t.Errorf("%s not live out of the DADD", reg)
		}
	}
}

// TestPredicatedWritesDontKill checks the may-liveness rule: a guarded
// redefinition keeps the original definition live, and both definitions
// reach the use.
func TestPredicatedWritesDontKill(t *testing.T) {
	p := prog("predkill",
		movi(rr(0)),                 // 0
		isetp(pp(0), rr(0), isa.RZ), // 1
		guard(movi(rr(0)), pp(0)),   // 2: guarded redefinition
		movi(rr(1)),                 // 3: address
		stg(rr(1), rr(0)),           // 4
		exit(),
	)
	r := Analyze(p)
	if len(r.Findings()) != 0 {
		t.Fatalf("unexpected findings: %v", r.Findings())
	}
	if !r.LiveOut[0].Has(rr(0)) {
		t.Errorf("R0 from instruction 0 killed by the predicated write at 2")
	}
	for _, def := range []int{0, 2} {
		found := false
		for _, e := range r.DefUse.Out[def] {
			if e.Use == 4 && e.Kind == EdgeStoreVal {
				found = true
			}
		}
		if !found {
			t.Errorf("definition %d does not reach the store: %v", def, r.DefUse.Out[def])
		}
	}
}

func unmaskedMean(v *ACEVector) float64 { return v.MeanSDC() + v.MeanDUE() }

// TestACEPropagation checks the two ends of the spectrum: a value stored
// to global memory is fully ACE; a transitively dead chain is ACE 0.
func TestACEPropagation(t *testing.T) {
	live := prog("live",
		movi(rr(0)),               // 0: feeds the store value via IADD
		movi(rr(1)),               // 1: address
		iadd(rr(2), rr(0), rr(0)), // 2
		stg(rr(1), rr(2)),         // 3
		exit(),
	)
	r := Analyze(live)
	if got := r.ACEVec[2].MeanSDC(); got < 0.999 {
		t.Errorf("stored IADD result SDC = %.3f, want 1.0", got)
	}
	if got := r.ACEVec[1].MeanDUE(); got <= 0 {
		t.Errorf("address register DUE = %.3f, want > 0", got)
	}
	op, cons := unmaskedMean(&r.ACEVec[0]), unmaskedMean(&r.ACEVec[2])
	if op <= 0 || op > cons {
		t.Errorf("operand ACE %.3f should be positive and at most consumer ACE %.3f", op, cons)
	}

	dead := prog("dead",
		movi(rr(0)),
		iadd(rr(2), rr(0), rr(0)),
		imul(rr(3), rr(2), rr(2)),
		exit(),
	)
	r = Analyze(dead)
	for i := 0; i < 3; i++ {
		if !r.ACEVec[i].Dead() {
			t.Errorf("instruction %d of a dead chain has ACE %.3f, want 0",
				i, unmaskedMean(&r.ACEVec[i]))
		}
	}
	if est := r.Estimate(nil, nil); est.DeadFraction < 0.999 {
		t.Errorf("dead chain DeadFraction = %.3f, want 1.0", est.DeadFraction)
	}
}

// TestEstimateWeighting checks OpWeights spreads dynamic counts over
// static sites and that zero-weight sites drop out.
func TestEstimateWeighting(t *testing.T) {
	p := prog("weights",
		movi(rr(0)),
		movi(rr(1)),
		iadd(rr(2), rr(0), rr(0)),
		imul(rr(3), rr(2), rr(2)), // dead
		stg(rr(1), rr(2)),
		exit(),
	)
	r := Analyze(p)
	w := r.OpWeights(map[isa.Op]uint64{
		isa.OpMOV32I: 10, // 5 per static site
		isa.OpIADD:   7,
		// IMUL never executed: weight 0
	})
	if w[0] != 5 || w[1] != 5 || w[2] != 7 || w[3] != 0 {
		t.Fatalf("weights = %v, want [5 5 7 0 ...]", w)
	}
	est := r.Estimate(w, nil)
	if est.Sites != 3 {
		t.Errorf("weighted sites = %d, want 3 (zero-weight IMUL dropped)", est.Sites)
	}
	if est.DeadFraction != 0 {
		t.Errorf("DeadFraction = %.3f, want 0 once the dead site has no weight", est.DeadFraction)
	}
	uniform := r.Estimate(nil, nil)
	if uniform.Sites != 4 || uniform.DeadFraction <= 0 {
		t.Errorf("uniform estimate sites=%d dead=%.3f, want 4 sites with a dead share",
			uniform.Sites, uniform.DeadFraction)
	}
}
