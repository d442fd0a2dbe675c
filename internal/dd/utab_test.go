package dd

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qcec/internal/cn"
)

// randomWorkload drives p through a seeded mix of kernel applications,
// gate-DD products and collections, recording every edge it produces.
func randomWorkload(p *Package, seed int64, steps int) ([]VEdge, []MEdge) {
	rng := rand.New(rand.NewSource(seed))
	mats := [][2][2]complex128{hMat, xMat, tMat, sMat, zMat}
	n := p.Qubits()
	st := p.ZeroState()
	m := p.Identity()
	var vs []VEdge
	var ms []MEdge
	for i := 0; i < steps; i++ {
		u := mats[rng.Intn(len(mats))]
		q := rng.Intn(n)
		var ctl []Control
		if c := rng.Intn(n); c != q && rng.Intn(2) == 0 {
			ctl = []Control{{Qubit: c, Neg: rng.Intn(3) == 0}}
		}
		st = p.ApplyGateV(u, q, ctl, st)
		m = p.MulMM(p.GateDD(u, q, ctl), m)
		vs = append(vs, st)
		ms = append(ms, m)
		if i%31 == 30 {
			p.GC([]VEdge{st}, []MEdge{m})
		} else {
			p.MaybeGC([]VEdge{st}, []MEdge{m})
		}
	}
	return vs, ms
}

// TestDeterministicRefs: two packages given the same operation sequence,
// collections included, must hand out identical node and weight refs and
// report identical statistics.  Collections sweep the arenas in slot order,
// so nothing in a package depends on Go map iteration order.
func TestDeterministicRefs(t *testing.T) {
	run := func() ([]VEdge, []MEdge, Stats) {
		p := New(5, 1e-10)
		p.SetGCThreshold(48)
		vs, ms := randomWorkload(p, 21, 300)
		return vs, ms, p.Snapshot()
	}
	v1, m1, s1 := run()
	v2, m2, s2 := run()
	if s1.GCRuns < 5 || s1.GCReclaimed == 0 {
		t.Fatalf("workload collected too little to exercise the sweep: %+v", s1)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Error("vector refs differ between identical runs")
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("matrix refs differ between identical runs")
	}
	if s1 != s2 {
		t.Errorf("stats differ between identical runs:\n%+v\n%+v", s1, s2)
	}
}

// TestUniqueTableGrowth: the tables start small and must grow (keeping every
// node findable) and stay at most half full.
func TestUniqueTableGrowth(t *testing.T) {
	p := New(12, 1e-10)
	start := len(p.vU.slots)
	var roots []VEdge
	for i := uint64(0); i < 1<<9; i++ {
		roots = append(roots, p.BasisState(i*7+3))
	}
	if len(p.vU.slots) <= start {
		t.Fatalf("vector table did not grow past %d slots (%d nodes)", start, p.vU.count)
	}
	if 2*p.vU.count > len(p.vU.slots) || 2*p.mU.count > len(p.mU.slots) {
		t.Fatalf("table over half full: v %d/%d, m %d/%d",
			p.vU.count, len(p.vU.slots), p.mU.count, len(p.mU.slots))
	}
	for i, r := range roots {
		if err := p.ValidateV(r); err != nil {
			t.Fatalf("root %d: %v", i, err)
		}
		// Re-creating a state must hit the table for every node.
		before := p.Snapshot().NodesCreated
		if again := p.BasisState(uint64(i)*7 + 3); again != r {
			t.Fatalf("root %d: rebuilt as %+v, was %+v", i, again, r)
		}
		if created := p.Snapshot().NodesCreated - before; created != 0 {
			t.Fatalf("root %d: re-creation made %d new nodes", i, created)
		}
	}
}

// TestUniqueTableRebuildAfterGC: after a collection the rebuilt tables hold
// exactly the surviving nodes, keep their capacity, and validation still
// finds every reachable node.
func TestUniqueTableRebuildAfterGC(t *testing.T) {
	p := New(7, 1e-10)
	vs, ms := randomWorkload(p, 5, 200)
	keepV, keepM := vs[len(vs)-1], ms[len(ms)-1]
	vCap, mCap := len(p.vU.slots), len(p.mU.slots)
	p.GC([]VEdge{keepV}, []MEdge{keepM})
	if len(p.vU.slots) != vCap || len(p.mU.slots) != mCap {
		t.Errorf("collection changed table capacity: v %d->%d, m %d->%d",
			vCap, len(p.vU.slots), mCap, len(p.mU.slots))
	}
	a := p.Arena()
	if live := a.VSlots - a.VFree; live != p.vU.count {
		t.Errorf("vector table holds %d nodes, arena %d live slots", p.vU.count, live)
	}
	if live := a.MSlots - a.MFree; live != p.mU.count {
		t.Errorf("matrix table holds %d nodes, arena %d live slots", p.mU.count, live)
	}
	if err := p.ValidateV(keepV); err != nil {
		t.Errorf("ValidateV after GC: %v", err)
	}
	if err := p.ValidateM(keepM); err != nil {
		t.Errorf("ValidateM after GC: %v", err)
	}
	if err := p.ValidateM(p.Identity()); err != nil {
		t.Errorf("ValidateM(identity) after GC: %v", err)
	}
	// New work after the sweep draws from the free lists and stays valid.
	st := p.ApplyGateV(hMat, 3, []Control{{Qubit: 1}}, keepV)
	if err := p.ValidateV(st); err != nil {
		t.Errorf("ValidateV on post-GC work: %v", err)
	}

	// Reset keeps the capacity too.
	p.Reset()
	if len(p.vU.slots) != vCap || len(p.mU.slots) != mCap {
		t.Errorf("Reset changed table capacity: v %d->%d, m %d->%d",
			vCap, len(p.vU.slots), mCap, len(p.mU.slots))
	}
}

// TestValidateFindsUnindexedNode: a reachable node whose arena slot no longer
// matches its unique-table entry must be reported.
func TestValidateFindsUnindexedNode(t *testing.T) {
	p := New(3, 1e-10)
	half := p.CN.LookupReal(0.5)
	st := buildEntangled(p)
	if err := p.ValidateV(st); err != nil {
		t.Fatalf("fresh state: %v", err)
	}
	// Rewrite the root's weights in place: the node is still reachable but
	// its signature no longer hashes to the slot the table stored.
	w := p.vA.wt[st.N]
	p.vA.wt[st.N] = [2]cn.Ref{cn.One, half}
	if err := p.ValidateV(st); err == nil || !strings.Contains(err.Error(), "missing from unique table") {
		t.Errorf("ValidateV on an unindexed node: %v", err)
	}
	p.vA.wt[st.N] = w

	m := p.GateDD(hMat, 1, []Control{{Qubit: 0}})
	if err := p.ValidateM(m); err != nil {
		t.Fatalf("gate DD: %v", err)
	}
	mw := p.mA.wt[m.N]
	p.mA.wt[m.N] = [4]cn.Ref{cn.One, half, cn.Zero, half}
	if err := p.ValidateM(m); err == nil || !strings.Contains(err.Error(), "missing from unique table") {
		t.Errorf("ValidateM on an unindexed node: %v", err)
	}
	p.mA.wt[m.N] = mw
}
