package dd

import (
	"testing"

	"qcec/internal/cn"
)

// buildEntangled applies H to qubit 0 and a CX ladder, creating a handful of
// distinct interior nodes on p.
func buildEntangled(p *Package) VEdge {
	st := p.ZeroState()
	st = p.ApplyGateV(hMat, 0, nil, st)
	for q := 1; q < p.Qubits(); q++ {
		st = p.ApplyGateV(xMat, q, []Control{{Qubit: q - 1}}, st)
	}
	return st
}

// TestArenaSlotReuse: a collection must hand dead slots to the arena free
// list, and rebuilding the same structure must be served from that free list
// without growing the slabs.
func TestArenaSlotReuse(t *testing.T) {
	p := New(5, 1e-10)
	buildEntangled(p)
	grown := p.Arena()
	if grown.VSlots == 0 {
		t.Fatalf("workload allocated no vector nodes")
	}

	// Unrooted collection: everything outside the identity chain and gate
	// cache dies, and the slots land on the free lists (not the Go GC).
	p.GC(nil, nil)
	freed := p.Arena()
	if freed.VSlots != grown.VSlots || freed.MSlots != grown.MSlots {
		t.Errorf("collection changed slab sizes: %+v -> %+v", grown, freed)
	}
	if freed.VFree == 0 {
		t.Errorf("collection freed no vector slots: %+v", freed)
	}

	// The identical workload must fit entirely in the recycled slots.
	buildEntangled(p)
	reused := p.Arena()
	if reused.VSlots > grown.VSlots || reused.MSlots > grown.MSlots {
		t.Errorf("rebuild grew the arena past %+v: %+v", grown, reused)
	}
	if reused.VFree >= freed.VFree {
		t.Errorf("rebuild did not draw from the free list: %+v -> %+v", freed, reused)
	}
}

// TestArenaReleaseScrubs: a freed slot is scrubbed (level -1, zero weights,
// terminal children), so an operation on a stale ref fails its level check
// loudly until the slot is recycled.
func TestArenaReleaseScrubs(t *testing.T) {
	p := New(3, 1e-10)
	st := buildEntangled(p)
	stale := st.N
	if stale == 0 {
		t.Fatalf("workload root is the terminal")
	}
	p.GC(nil, nil) // no roots: st dies
	if lv := p.vA.lv[stale]; lv != -1 {
		t.Errorf("freed slot keeps level %d, want -1", lv)
	}
	if w := p.vA.wt[stale]; w != [2]cn.Ref{} {
		t.Errorf("freed slot keeps weights %v", w)
	}
}

// TestStatsAddGaugeMax pins Stats.Add's mixed semantics: the point-in-time
// gauges take the per-worker maximum (a population summed across workers
// reports a footprint nothing ever had) while the activity counters sum.
func TestStatsAddGaugeMax(t *testing.T) {
	a := Stats{
		VectorNodes: 100, MatrixNodes: 40, WeightsStored: 9, GateCacheSize: 3,
		NodesCreated: 1000, ApplyCalls: 10, GCRuns: 2,
	}
	b := Stats{
		VectorNodes: 70, MatrixNodes: 90, WeightsStored: 12, GateCacheSize: 1,
		NodesCreated: 500, ApplyCalls: 7, GCRuns: 1,
	}
	a.Add(b)
	if a.VectorNodes != 100 || a.MatrixNodes != 90 || a.WeightsStored != 12 || a.GateCacheSize != 3 {
		t.Errorf("gauges must take the max: %+v", a)
	}
	if a.NodesCreated != 1500 || a.ApplyCalls != 17 || a.GCRuns != 3 {
		t.Errorf("counters must sum: %+v", a)
	}
}

// TestMaybeGCThresholdCapAndRearm: adaptive backoff must stop at
// gcGrowthCap times the configured base, and heavy-reclaim collections must
// walk the threshold back down to the base.  Before the cap, a workload
// whose live set sat just above the trigger doubled the threshold without
// bound — every later collection was deferred until the table was huge,
// defeating MaybeGC's point on long runs.
func TestMaybeGCThresholdCapAndRearm(t *testing.T) {
	const base = 8
	p := New(6, 1e-10)
	p.SetGCThreshold(base)

	// Pin every basis state: ~2^(n+1) live path nodes that no collection can
	// reclaim, so each MaybeGC is a low-yield one and doubles the threshold.
	roots := make([]VEdge, 0, 1<<6)
	for i := uint64(0); i < 1<<6; i++ {
		roots = append(roots, p.BasisState(i))
	}
	if live := p.NodeCount(); live <= gcGrowthCap*base {
		t.Fatalf("live set %d too small to exercise the cap", live)
	}
	for i := 0; i < 12; i++ {
		if !p.MaybeGC(roots, nil) {
			t.Fatalf("iteration %d: live set %d under threshold %d, GC skipped",
				i, p.NodeCount(), p.gcThreshold)
		}
	}
	if p.gcThreshold != gcGrowthCap*base {
		t.Errorf("threshold = %d after sustained low-yield GCs, want cap %d",
			p.gcThreshold, gcGrowthCap*base)
	}

	// Re-arm: rounds of garbage with no roots reclaim nearly everything, and
	// each heavy-reclaim collection halves the threshold back towards base.
	for i := 0; i < 12 && p.gcThreshold > base; i++ {
		for j := uint64(0); p.NodeCount() < p.gcThreshold; j++ {
			p.BasisState(j % (1 << 6))
		}
		p.MaybeGC(nil, nil)
	}
	if p.gcThreshold != base {
		t.Errorf("threshold = %d after heavy-reclaim GCs, want re-armed base %d",
			p.gcThreshold, base)
	}

	// The cap tracks the configured base, not the package default.
	p2 := New(4, 1e-10)
	p2.SetGCThreshold(DefaultGCThreshold * 2)
	if p2.gcBase != DefaultGCThreshold*2 {
		t.Errorf("SetGCThreshold did not move the adaptive base: %d", p2.gcBase)
	}
}
