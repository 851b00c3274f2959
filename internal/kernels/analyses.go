package kernels

import (
	"slices"
	"sync"

	"gpurel/internal/analysis"
	"gpurel/internal/isa"
)

// analysisMemo computes each distinct launch analysis once. A Cache
// owns one and hands it to every runner it builds, so runners whose
// builds re-create identical programs (the same workload at two opt
// levels whose knobs leave a kernel unchanged, a kernel launched many
// times) share one *analysis.Result. A runner built outside a cache
// gets a private memo.
//
// The key is exact: the analyzer reads nothing of a launch but its
// program (name, NumRegs, SharedMem, instructions) and the bounds its
// geometry implies, so two launches equal in all of those get results
// equal in every product. The scalar parts pick the bucket; the
// instructions are compared element by element within it.
type analysisMemo struct {
	mu      sync.Mutex
	buckets map[memoBucket][]*memoEntry
}

type memoBucket struct {
	name               string
	numRegs, sharedMem int
	instrs             int
	bounds             analysis.Bounds
}

type memoEntry struct {
	instrs []isa.Instr
	once   sync.Once
	res    *analysis.Result
}

func newAnalysisMemo() *analysisMemo {
	return &analysisMemo{buckets: make(map[memoBucket][]*memoEntry)}
}

// analyze returns the memoized analysis of p under bounds, computing it
// on first use. Concurrent callers for one key block on the one
// computation; callers for other keys do not wait for it.
func (m *analysisMemo) analyze(p *isa.Program, bounds analysis.Bounds) *analysis.Result {
	key := memoBucket{p.Name, p.NumRegs, p.SharedMem, len(p.Instrs), bounds}
	m.mu.Lock()
	var ent *memoEntry
	for _, e := range m.buckets[key] {
		if slices.Equal(e.instrs, p.Instrs) {
			ent = e
			break
		}
	}
	if ent == nil {
		ent = &memoEntry{instrs: p.Instrs}
		m.buckets[key] = append(m.buckets[key], ent)
	}
	m.mu.Unlock()
	ent.once.Do(func() { ent.res = analysis.AnalyzeLaunch(p, &bounds) })
	return ent.res
}

// Analyses returns the static analysis of every launch, entry i seeded
// with launch i's geometry, computing them on first use. Results are
// shared with every runner of the same cache whose launch has an
// identical program and geometry; callers must treat them as
// read-only.
func (r *Runner) Analyses() []*analysis.Result {
	r.analysesOnce.Do(func() {
		r.analyses = make([]*analysis.Result, len(r.inst.Launches))
		for i, l := range r.inst.Launches {
			r.analyses[i] = r.memo.analyze(l.Prog, analysis.Bounds{
				GridX: l.GridX, GridY: l.GridY, BlockThreads: l.BlockThreads,
			})
		}
	})
	return r.analyses
}
