// Package dd implements quantum multiple-valued decision diagrams (QMDDs)
// for representing quantum states (vector DDs) and unitaries (matrix DDs).
//
// This is the substrate both sides of the paper run on: the simulator
// performs matrix-vector multiplications on it (cheap — the "power of
// simulation"), and the complete equivalence-checking routine performs
// matrix-matrix multiplications on it (expensive — the state of the art the
// paper improves upon).
//
// Design notes, mirroring the JKU/MQT DD package the paper builds on:
//
//   - Edge weights are interned in a cn.Table, so numerically equal weights
//     carry the same 32-bit cn.Ref.
//   - Nodes live in per-package arenas (growable struct-of-arrays slabs, see
//     arena.go) and are addressed by 32-bit indices; the per-kind unique
//     tables (open-addressed, see utab.go) index node signatures to slots,
//     and nodes are normalized with the largest-magnitude rule (magnitudes
//     tied within the weight tolerance break towards the lowest edge
//     index), so two DDs represent the same function if and only if their
//     root edges compare equal as (node index, weight ref) pairs.  No node,
//     edge or weight holds a Go pointer.
//   - All non-zero paths visit a node at every level ("full chains"); only
//     zero edges shortcut directly to the terminal.  This keeps every binary
//     operation strictly level-synchronized.
//   - Operation results are memoized in fixed-size, overwrite-on-collision
//     compute tables, so memory use is bounded and lookups are O(1).
//   - Whole gate DDs are memoized in a per-package gate cache keyed by the
//     interned 2×2 matrix entries, the target and the control masks, so the
//     hot simulation loop (r stimuli × |G| gates) builds each distinct gate
//     once.  Unlike the compute tables, the cache survives garbage
//     collection: its entries are marked as GC roots (see GC).
//
// Concurrency: a Package (and the cn.Table it owns) is NOT safe for
// concurrent use.  Concurrent clients — the parallel simulation stage in
// internal/core and the prover portfolio in internal/portfolio — must give
// every goroutine its own Package and never share edges between packages.
// Cooperative cancellation across that boundary is provided by SetCancel
// (and SetDeadline), which a goroutine installs on its own package before
// starting work.
package dd

import (
	"fmt"
	"sync/atomic"
	"time"

	"qcec/internal/cn"
)

// VEdge is a weighted edge into a vector DD.  N is an arena index (see
// arena.go); N == 0 denotes the terminal, and VEdge{W: <zero>, N: 0} is the
// canonical zero vector.
type VEdge struct {
	W cn.Ref
	N VRef
}

// MEdge is a weighted edge into a matrix DD.  N == 0 denotes the terminal;
// MEdge{W: <zero>, N: 0} is the canonical zero matrix.
type MEdge struct {
	W cn.Ref
	N MRef
}

// Control describes a control qubit of a quantum operation.  When Neg is
// true, the operation fires on the |0> branch of the qubit (a "negative
// control", as used by RevLib netlists).
type Control struct {
	Qubit int
	Neg   bool
}

// gateKey identifies a full-register gate DD: the four interned entries of
// the 2×2 operation matrix, the target qubit, and the positive/negative
// control sets encoded as bitmasks (exact for MaxQubits = 64).  Because the
// entries are interned through the package's cn.Table, two matrices equal up
// to the weight tolerance share a key — the same equivalence the DD itself
// applies to edge weights.
type gateKey struct {
	w00, w01, w10, w11 cn.Ref
	target             int
	posCtl, negCtl     uint64
}

// Package owns the unique tables, compute tables and complex table for DDs on
// a fixed number of qubits.  It is not safe for concurrent use.
type Package struct {
	n  int
	CN *cn.Table

	// vA and mA are the node arenas (see arena.go); vU and mU are their
	// unique tables (see utab.go), which index the arena slots by node
	// signature.  An index doubles as the node's id for compute-table
	// hashing and commutative operand ordering: it is a stable total order
	// over live nodes, and index reuse after a sweep can never alias a
	// cached entry because every collection clears the compute tables
	// before slots return to the free list.
	vA vArena
	mA mArena
	vU utab
	mU utab
	// nodesCreated is the per-job counter behind Stats.NodesCreated; Reset
	// zeroes it so a pooled package reports only its current job's work.
	nodesCreated uint64

	idents []MEdge // idents[k] = identity on the k lowest levels

	// Compute tables (zero values: lazily allocated on first insert).
	addV ctab[addVEntry]
	addM ctab[addMEntry]
	mv   ctab[mvEntry]
	mm   ctab[mmEntry]
	ip   ctab[ipEntry]
	ct   ctab[ctEntry]
	kr   ctab[krEntry]
	ap   ctab[apEntry]
	apb  ctab[apbEntry]

	// apIDs assigns each distinct gate key a small id that keys the apply
	// compute tables (see applyID).  The map survives garbage collections —
	// ids stay valid because entries referencing them live in ap and apb,
	// which GC clears — unless it outgrows gateCacheLimit, in which case GC resets
	// it alongside the table and bumps apEpoch so prepared gates
	// re-register their ids.
	apIDs   map[gateKey]uint32
	apEpoch uint64

	applyCalls     uint64
	applyDiag      uint64
	applyPerm      uint64
	applyGenericCt uint64
	applyHits      uint64
	applyMisses    uint64

	// gcThreshold is the unique-table population that triggers a garbage
	// collection in MaybeGC.  It doubles after a collection that fails to
	// reclaim at least a quarter of the nodes — but never beyond
	// gcGrowthCap times gcBase — and re-arms back towards gcBase once
	// collections reclaim well again (see MaybeGC), so a long-lived package
	// that survives one node-heavy stimulus resumes collecting instead of
	// creeping towards the watchdog's hard limit.  gcBase is the configured
	// trigger (DefaultGCThreshold, or SetGCThreshold's override).
	gcThreshold int
	gcBase      int
	gcRuns      int

	// nodeLimit, when positive, makes node creation panic with a
	// *LimitError once the unique tables exceed it.  Long-running clients
	// (the equivalence checker) recover the panic and turn it into a
	// timeout-class verdict; this bounds time and memory even inside a
	// single huge multiplication, where per-gate deadline checks cannot
	// reach.
	nodeLimit int
	// deadline, when set, makes node creation panic with a *LimitError
	// once the wall clock passes it (checked every few thousand
	// allocations, so the overhead is negligible).
	deadline time.Time
	// cancel, when set, is polled at the same allocation checkpoint as the
	// deadline; returning true panics with a *LimitError whose Cancelled
	// field is set.  This is how context cancellation reaches inside a
	// single long-running DD operation.
	cancel     func() bool
	allocCount uint64

	// pressure, when set, is polled at GC decision points (MaybeGC): a value
	// different from pressureSeen means the memory watchdog bumped its
	// pressure epoch, and the next MaybeGC collects unconditionally and
	// flushes the gate cache.  The hook must be safe to call from this
	// package's owning goroutine while the watchdog writes the epoch (an
	// atomic load — see resource.Watchdog.Epoch).
	pressure     func() uint64
	pressureSeen uint64
	pressureGCs  uint64

	// occupancy mirrors the unique-table population for cross-goroutine
	// observers (the memory watchdog).  It is the only Package field written
	// by the owner and read by another goroutine, hence the atomic; it is
	// refreshed at allocation checkpoints and after collections, so it lags
	// the true population by at most a few hundred nodes.
	occupancy atomic.Int64

	// faults is the fault-injection seam: when non-nil, BeforeApply runs at
	// every gate-application entry point with a per-package ordinal.  It is
	// nil in production (dd_test and internal/faultinject install injectors);
	// the field is copied from the process-wide default at New, so installing
	// an injector before worker packages are created is race-free.
	faults      FaultInjector
	faultEvents uint64

	cacheHits, cacheMisses uint64

	// gateCache memoizes full-register gate DDs across gate applications:
	// the simulation loop applies the same few dozen distinct gates to r
	// stimuli, and the uncached path rebuilds the O(n)-node matrix DD every
	// time.  Entries are treated as GC roots (re-rooted, not invalidated),
	// unless the cache has outgrown gateCacheLimit, in which case the
	// collection flushes it and construction starts over on demand.  Like
	// everything else in the Package, the cache is strictly per-Package and
	// never crosses goroutines.
	gateCache      map[gateKey]MEdge
	gateCacheOn    bool
	gateCacheLimit int
	gateHits       uint64
	gateMisses     uint64
	gateFlushes    uint64

	uniqueLookups uint64
	uniqueHits    uint64
	gcReclaimed   uint64
}

// LimitError is the panic value raised when the configured node limit or
// operation deadline is exceeded; see SetNodeLimit and SetDeadline.
type LimitError struct {
	Nodes     int
	Limit     int
	Deadline  bool // true when the wall-clock deadline tripped
	Cancelled bool // true when the SetCancel hook requested a stop
}

// Error formats the limit violation.
func (e *LimitError) Error() string {
	switch {
	case e.Cancelled:
		return fmt.Sprintf("dd: operation cancelled (%d live nodes)", e.Nodes)
	case e.Deadline:
		return fmt.Sprintf("dd: operation deadline exceeded (%d live nodes)", e.Nodes)
	}
	return fmt.Sprintf("dd: node limit exceeded (%d nodes, limit %d)", e.Nodes, e.Limit)
}

// SetNodeLimit installs (or with 0 removes) a hard bound on the live node
// population.  Exceeding it panics with a *LimitError at the allocation
// site.
func (p *Package) SetNodeLimit(n int) { p.nodeLimit = n }

// SetDeadline installs (or with the zero time removes) a wall-clock bound on
// DD operations.  Passing it panics with a *LimitError at the next
// allocation checkpoint, which reaches even into a single long-running
// multiplication.
func (p *Package) SetDeadline(t time.Time) { p.deadline = t }

// SetCancel installs (or with nil removes) a cooperative cancellation hook,
// polled every few thousand node allocations.  When the hook returns true the
// current DD operation panics with a *LimitError whose Cancelled field is
// set, which long-running clients (internal/ec, internal/core) recover and
// turn into a cancelled verdict.  The typical hook closes over a
// context.Context: func() bool { return ctx.Err() != nil }.
func (p *Package) SetCancel(f func() bool) { p.cancel = f }

func (p *Package) checkLimit() {
	if p.nodeLimit > 0 {
		if n := p.NodeCount(); n > p.nodeLimit {
			panic(&LimitError{Nodes: n, Limit: p.nodeLimit})
		}
	}
	p.allocCount++
	if p.allocCount&0x1FF == 0 {
		p.updateOccupancy()
	}
	if p.allocCount&0x1FFF == 0 {
		if !p.deadline.IsZero() && time.Now().After(p.deadline) {
			panic(&LimitError{Nodes: p.NodeCount(), Limit: p.nodeLimit, Deadline: true})
		}
		if p.cancel != nil && p.cancel() {
			panic(&LimitError{Nodes: p.NodeCount(), Limit: p.nodeLimit, Cancelled: true})
		}
	}
}

// SetPressure installs (or with nil removes) a memory-pressure hook, polled
// at every MaybeGC decision.  When the returned epoch differs from the last
// observed one, the next MaybeGC collects unconditionally and flushes the
// gate cache — this is how the resource watchdog's soft limit reaches a
// package it must not touch directly (Package is single-goroutine).  The
// typical hook is resource.Watchdog.Epoch.
func (p *Package) SetPressure(f func() uint64) {
	p.pressure = f
	if f != nil {
		p.pressureSeen = f()
	}
}

// OccupancyGauge returns a function reporting the package's approximate live
// node population, safe to call from any goroutine (the memory watchdog
// samples it off-thread).  The value is refreshed at allocation checkpoints
// and after collections.
func (p *Package) OccupancyGauge() func() int64 { return p.occupancy.Load }

func (p *Package) updateOccupancy() {
	p.occupancy.Store(int64(p.NodeCount()))
}

// FaultInjector is the deterministic fault-injection seam used by chaos
// tests (internal/faultinject): BeforeApply runs at every gate-application
// entry point (GateDD, ApplyGateV, ApplyPrepared) with the package's
// 1-based application ordinal, and may panic, allocate, sleep or corrupt
// weights to exercise the recovery paths.  Production code never installs
// one, so the seam costs a nil check per gate.
type FaultInjector interface {
	BeforeApply(p *Package, nth uint64)
}

// defaultInjector holds the process-wide injector copied into every Package
// at New.  atomic.Value cannot store a bare nil interface, so it stores a
// one-field box.
var defaultInjector atomic.Value

type injectorBox struct{ fi FaultInjector }

// SetDefaultFaultInjector installs (or with nil removes) the process-wide
// fault injector that every subsequently created Package copies at New.
// Install it before the checking run spawns worker goroutines; already-live
// packages are unaffected.
func SetDefaultFaultInjector(fi FaultInjector) {
	defaultInjector.Store(injectorBox{fi: fi})
}

// SetFaultInjector overrides the fault injector for this package only.
func (p *Package) SetFaultInjector(fi FaultInjector) { p.faults = fi }

func (p *Package) faultPoint() {
	if p.faults == nil {
		return
	}
	p.faultEvents++
	p.faults.BeforeApply(p, p.faultEvents)
}

// DefaultGCThreshold is the initial unique-table population that triggers
// garbage collection via MaybeGC.
const DefaultGCThreshold = 250_000

// DefaultGateCacheLimit bounds the gate-DD cache population: a garbage
// collection that finds more cached gates than this flushes the cache instead
// of re-rooting it.  Real workloads stay far below the limit (a circuit
// contributes at most one entry per distinct (matrix, target, controls)
// triple), so the bound only guards against pathological parameterized-gate
// streams.
const DefaultGateCacheLimit = 1 << 16

// MaxQubits is the largest supported register size (basis-state indices are
// addressed with uint64).
const MaxQubits = 64

// New creates a DD package for n qubits with the given weight tolerance.
func New(n int, tol float64) *Package {
	if n <= 0 || n > MaxQubits {
		panic(fmt.Sprintf("dd: unsupported qubit count %d", n))
	}
	p := &Package{
		n:           n,
		CN:          cn.NewTable(tol),
		gcThreshold: DefaultGCThreshold,
		gcBase:      DefaultGCThreshold,

		gateCache:      make(map[gateKey]MEdge, 64),
		gateCacheOn:    true,
		gateCacheLimit: DefaultGateCacheLimit,
	}
	p.vA.init()
	p.mA.init()
	p.vU.init()
	p.mU.init()
	if box, ok := defaultInjector.Load().(injectorBox); ok {
		p.faults = box.fi
	}
	p.idents = []MEdge{{W: cn.One, N: 0}}
	return p
}

// NewDefault creates a DD package for n qubits with the default tolerance.
func NewDefault(n int) *Package { return New(n, cn.DefaultTolerance) }

// Qubits returns the register size of the package.
func (p *Package) Qubits() int { return p.n }

// NodeCount returns the current unique-table population (vector plus matrix
// nodes).
func (p *Package) NodeCount() int { return p.vU.count + p.mU.count }

// Stats is a snapshot of the package's internal activity, exposed for the
// benchmark harness, the CLI's -stats flag and for performance debugging.
//
// The first group are gauges (current populations); the rest are
// monotonically increasing counters.  CacheHits/CacheMisses cover the
// operation compute tables (add, mul, inner product, ...); the unique-table
// counters measure hash-consing effectiveness (a "hit" is a makeNode call
// that found a structurally identical node already interned, a miss is an
// insertion; probe lengths of the open-addressed tables are not counted);
// the gate counters cover the gate-DD cache.
type Stats struct {
	VectorNodes   int
	MatrixNodes   int
	WeightsStored int
	GateCacheSize int
	NodesCreated  uint64
	GCRuns        int
	GCReclaimed   uint64 // total nodes removed across all collections
	CacheHits     uint64 // compute-table hits
	CacheMisses   uint64 // compute-table misses
	UniqueLookups uint64 // unique-table probes by makeVNode/makeMNode
	UniqueHits    uint64 // probes answered by an existing node
	WeightLookups int64  // cn.Table lookups
	WeightHits    int64  // cn.Table lookups answered by an existing value
	GateHits      uint64 // gate-DD cache hits
	GateMisses    uint64 // gate-DD cache misses (full bottom-up builds)
	GateFlushes   uint64 // gate-DD cache flushes forced by oversized GCs
	ApplyCalls    uint64 // direct kernel gate applications (ApplyGateV)
	ApplyDiag     uint64 // of those, diagonal fast-path applications
	ApplyPerm     uint64 // of those, permutation (cofactor-swap) applications
	ApplyGeneric  uint64 // of those, dense 2x2 applications
	ApplyHits     uint64 // apply compute-table hits
	ApplyMisses   uint64 // apply compute-table misses
	PressureGCs   uint64 // collections forced by the memory watchdog's pressure epoch
	FaultEvents   uint64 // fault-injection callbacks fired (0 outside chaos tests)
}

// Snapshot returns current package statistics.
func (p *Package) Snapshot() Stats {
	wl, wh := p.CN.Stats()
	return Stats{
		VectorNodes:   p.vU.count,
		MatrixNodes:   p.mU.count,
		WeightsStored: p.CN.Size(),
		GateCacheSize: len(p.gateCache),
		NodesCreated:  p.nodesCreated,
		GCRuns:        p.gcRuns,
		GCReclaimed:   p.gcReclaimed,
		CacheHits:     p.cacheHits,
		CacheMisses:   p.cacheMisses,
		UniqueLookups: p.uniqueLookups,
		UniqueHits:    p.uniqueHits,
		WeightLookups: wl,
		WeightHits:    wh,
		GateHits:      p.gateHits,
		GateMisses:    p.gateMisses,
		GateFlushes:   p.gateFlushes,
		ApplyCalls:    p.applyCalls,
		ApplyDiag:     p.applyDiag,
		ApplyPerm:     p.applyPerm,
		ApplyGeneric:  p.applyGenericCt,
		ApplyHits:     p.applyHits,
		ApplyMisses:   p.applyMisses,
		PressureGCs:   p.pressureGCs,
		FaultEvents:   p.faultEvents,
	}
}

// Add accumulates another snapshot into s.  Counters sum exactly; the
// gauges (the point-in-time node, weight and cache populations) take the
// maximum instead, mirroring resource.Stats.Add's peak semantics.  Summing
// gauges across the per-worker packages of a parallel simulation stage — or
// across the batch items of a serving aggregate — multiplies a steady-state
// population by the worker count and reports a footprint nothing ever had;
// the peak is the number /metrics, the harness CSVs and `qcec -stats` can
// honestly aggregate.
func (s *Stats) Add(o Stats) {
	s.VectorNodes = max(s.VectorNodes, o.VectorNodes)
	s.MatrixNodes = max(s.MatrixNodes, o.MatrixNodes)
	s.WeightsStored = max(s.WeightsStored, o.WeightsStored)
	s.GateCacheSize = max(s.GateCacheSize, o.GateCacheSize)
	s.NodesCreated += o.NodesCreated
	s.GCRuns += o.GCRuns
	s.GCReclaimed += o.GCReclaimed
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.UniqueLookups += o.UniqueLookups
	s.UniqueHits += o.UniqueHits
	s.WeightLookups += o.WeightLookups
	s.WeightHits += o.WeightHits
	s.GateHits += o.GateHits
	s.GateMisses += o.GateMisses
	s.GateFlushes += o.GateFlushes
	s.ApplyCalls += o.ApplyCalls
	s.ApplyDiag += o.ApplyDiag
	s.ApplyPerm += o.ApplyPerm
	s.ApplyGeneric += o.ApplyGeneric
	s.ApplyHits += o.ApplyHits
	s.ApplyMisses += o.ApplyMisses
	s.PressureGCs += o.PressureGCs
	s.FaultEvents += o.FaultEvents
}

// GateHitRate returns the fraction of GateDD calls answered by the gate
// cache (0 when no calls were made).
func (s Stats) GateHitRate() float64 {
	total := s.GateHits + s.GateMisses
	if total == 0 {
		return 0
	}
	return float64(s.GateHits) / float64(total)
}

// ApplyHitRate returns the fraction of apply compute-table probes answered
// from the table (0 when the kernel was never used).
func (s Stats) ApplyHitRate() float64 {
	total := s.ApplyHits + s.ApplyMisses
	if total == 0 {
		return 0
	}
	return float64(s.ApplyHits) / float64(total)
}

// ComputeHitRate returns the fraction of compute-table probes that hit.
func (s Stats) ComputeHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// UniqueHitRate returns the fraction of unique-table probes answered by an
// already-interned node.
func (s Stats) UniqueHitRate() float64 {
	if s.UniqueLookups == 0 {
		return 0
	}
	return float64(s.UniqueHits) / float64(s.UniqueLookups)
}

// SetGateCacheEnabled turns the gate-DD cache on or off (it is on by
// default).  Disabling also drops all current entries, so a subsequent GC no
// longer treats them as roots; re-enabling starts from an empty cache.
func (p *Package) SetGateCacheEnabled(on bool) {
	if !on {
		clear(p.gateCache)
	}
	p.gateCacheOn = on
}

// GateCacheEnabled reports whether the gate-DD cache is active.
func (p *Package) GateCacheEnabled() bool { return p.gateCacheOn }

// SetGateCacheLimit overrides the population bound above which a garbage
// collection flushes the gate cache instead of re-rooting it (primarily for
// tests; values < 1 are clamped to 1).
func (p *Package) SetGateCacheLimit(n int) {
	if n < 1 {
		n = 1
	}
	p.gateCacheLimit = n
}

// VZero returns the canonical zero vector edge.
func (p *Package) VZero() VEdge { return VEdge{W: cn.Zero, N: 0} }

// MZero returns the canonical zero matrix edge.
func (p *Package) MZero() MEdge { return MEdge{W: cn.Zero, N: 0} }

// VTerminal returns a terminal vector edge carrying the given scalar.
func (p *Package) VTerminal(c complex128) VEdge {
	return VEdge{W: p.CN.Lookup(c), N: 0}
}

// MTerminal returns a terminal matrix edge carrying the given scalar.
func (p *Package) MTerminal(c complex128) MEdge {
	return MEdge{W: p.CN.Lookup(c), N: 0}
}

// makeVNode builds the canonical, normalized node for the given successors
// and returns it as an edge whose weight carries the normalization factor.
// The largest-magnitude pick uses the weight tolerance as a tie band:
// magnitudes that agree within it break towards the lowest index, so the
// choice is stable when different computation orders of the same function
// produce floating-point noise around an exact tie.
func (p *Package) makeVNode(v int, e0, e1 VEdge) VEdge {
	if e0.W == cn.Zero && e1.W == cn.Zero {
		return p.VZero()
	}
	k := 0
	if a0, a1 := p.CN.Abs2(e0.W), p.CN.Abs2(e1.W); a1-a0 > p.CN.Tolerance()*(a0+a1) {
		k = 1
	}
	var top cn.Ref
	if k == 0 {
		top = e0.W
		e0.W = cn.One
		if e1.W != cn.Zero {
			e1.W = p.CN.Div(e1.W, top)
		}
	} else {
		top = e1.W
		e1.W = cn.One
		if e0.W != cn.Zero {
			e0.W = p.CN.Div(e0.W, top)
		}
	}
	node := p.internV(v, [2]VRef{e0.N, e1.N}, [2]cn.Ref{e0.W, e1.W})
	return VEdge{W: top, N: node}
}

// makeMNode is the matrix counterpart of makeVNode (including the
// tolerance tie band on the largest-magnitude pick).
func (p *Package) makeMNode(v int, e [4]MEdge) MEdge {
	k := -1
	var max float64
	for i := 0; i < 4; i++ {
		if e[i].W == cn.Zero {
			continue
		}
		if a := p.CN.Abs2(e[i].W); k < 0 || a-max > p.CN.Tolerance()*(a+max) {
			k, max = i, a
		}
	}
	if k < 0 {
		return p.MZero()
	}
	top := e[k].W
	for i := 0; i < 4; i++ {
		switch {
		case i == k:
			e[i].W = cn.One
		case e[i].W != cn.Zero:
			e[i].W = p.CN.Div(e[i].W, top)
		}
	}
	node := p.internM(v,
		[4]MRef{e[0].N, e[1].N, e[2].N, e[3].N},
		[4]cn.Ref{e[0].W, e[1].W, e[2].W, e[3].W})
	return MEdge{W: top, N: node}
}

// scaleV multiplies an edge weight by w.
func (p *Package) scaleV(e VEdge, w cn.Ref) VEdge {
	if w == cn.One {
		return e
	}
	if w == cn.Zero || e.W == cn.Zero {
		return p.VZero()
	}
	return VEdge{W: p.CN.Mul(e.W, w), N: e.N}
}

// scaleM multiplies an edge weight by w.
func (p *Package) scaleM(e MEdge, w cn.Ref) MEdge {
	if w == cn.One {
		return e
	}
	if w == cn.Zero || e.W == cn.Zero {
		return p.MZero()
	}
	return MEdge{W: p.CN.Mul(e.W, w), N: e.N}
}

// identUpTo returns the identity matrix DD covering the k lowest levels
// (k = 0 yields the scalar 1 terminal edge).
func (p *Package) identUpTo(k int) MEdge {
	if k > p.n {
		panic(fmt.Sprintf("dd: identity request for %d levels on %d qubits", k, p.n))
	}
	for len(p.idents) <= k {
		lvl := len(p.idents) - 1
		prev := p.idents[lvl]
		e := p.makeMNode(lvl, [4]MEdge{prev, p.MZero(), p.MZero(), prev})
		p.idents = append(p.idents, e)
	}
	return p.idents[k]
}

// Identity returns the n-qubit identity matrix DD.
func (p *Package) Identity() MEdge { return p.identUpTo(p.n) }

// IsIdentity reports whether m is the identity.  With strict=false a global
// phase factor (unit-magnitude root weight) is accepted.
func (p *Package) IsIdentity(m MEdge, strict bool) bool {
	id := p.Identity()
	if m.N != id.N {
		return false
	}
	if strict {
		return m.W == cn.One
	}
	mag := p.CN.Abs(m.W)
	return mag > 1-16*p.CN.Tolerance() && mag < 1+16*p.CN.Tolerance()
}

// BasisState returns |i> as a vector DD.
func (p *Package) BasisState(i uint64) VEdge {
	if p.n < 64 && i >= uint64(1)<<uint(p.n) {
		panic(fmt.Sprintf("dd: basis state %d out of range for %d qubits", i, p.n))
	}
	e := VEdge{W: cn.One, N: 0}
	for z := 0; z < p.n; z++ {
		if (i>>uint(z))&1 == 0 {
			e = p.makeVNode(z, e, p.VZero())
		} else {
			e = p.makeVNode(z, p.VZero(), e)
		}
	}
	return e
}

// ZeroState returns |0...0>.
func (p *Package) ZeroState() VEdge { return p.BasisState(0) }

// GateDD returns the n-qubit matrix DD of a single-qubit operation u applied
// to target, optionally controlled (positively or negatively) by the given
// qubits.  Results are memoized in the per-package gate cache (see Stats's
// GateHits/GateMisses and SetGateCacheEnabled); a miss falls through to the
// bottom-up construction used by the JKU package.
func (p *Package) GateDD(u [2][2]complex128, target int, controls []Control) MEdge {
	if target < 0 || target >= p.n {
		panic(fmt.Sprintf("dd: gate target %d out of range", target))
	}
	// Validate via the control bitmasks (exact for MaxQubits = 64): range,
	// target collision and duplicates, without allocating on the hit path.
	var pos, neg uint64
	for _, c := range controls {
		if c.Qubit < 0 || c.Qubit >= p.n || c.Qubit == target {
			panic(fmt.Sprintf("dd: invalid control qubit %d", c.Qubit))
		}
		bit := uint64(1) << uint(c.Qubit)
		if (pos|neg)&bit != 0 {
			panic(fmt.Sprintf("dd: duplicate control qubit %d", c.Qubit))
		}
		if c.Neg {
			neg |= bit
		} else {
			pos |= bit
		}
	}
	p.faultPoint()
	if !p.gateCacheOn {
		return p.buildGateDD(u, target, controls)
	}
	key := gateKey{
		w00: p.CN.Lookup(u[0][0]), w01: p.CN.Lookup(u[0][1]),
		w10: p.CN.Lookup(u[1][0]), w11: p.CN.Lookup(u[1][1]),
		target: target, posCtl: pos, negCtl: neg,
	}
	if e, ok := p.gateCache[key]; ok {
		p.gateHits++
		return e
	}
	p.gateMisses++
	e := p.buildGateDD(u, target, controls)
	p.gateCache[key] = e
	return e
}

// buildGateDD performs the bottom-up gate-DD construction.  The caller has
// already validated target and controls.
func (p *Package) buildGateDD(u [2][2]complex128, target int, controls []Control) MEdge {
	sorted := make([]Control, len(controls))
	copy(sorted, controls)
	for i := 1; i < len(sorted); i++ { // insertion sort; control lists are tiny
		for j := i; j > 0 && sorted[j].Qubit < sorted[j-1].Qubit; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}

	em := [4]MEdge{
		p.MTerminal(u[0][0]), p.MTerminal(u[0][1]),
		p.MTerminal(u[1][0]), p.MTerminal(u[1][1]),
	}
	ci := 0
	for z := 0; z < target; z++ {
		if ci < len(sorted) && sorted[ci].Qubit == z {
			neg := sorted[ci].Neg
			for i := 0; i < 4; i++ {
				idPart := p.MZero()
				if i == 0 || i == 3 { // diagonal entries act as identity off-control
					idPart = p.identUpTo(z)
				}
				if neg {
					em[i] = p.makeMNode(z, [4]MEdge{em[i], p.MZero(), p.MZero(), idPart})
				} else {
					em[i] = p.makeMNode(z, [4]MEdge{idPart, p.MZero(), p.MZero(), em[i]})
				}
			}
			ci++
		} else {
			for i := 0; i < 4; i++ {
				em[i] = p.makeMNode(z, [4]MEdge{em[i], p.MZero(), p.MZero(), em[i]})
			}
		}
	}
	e := p.makeMNode(target, em)
	for z := target + 1; z < p.n; z++ {
		if ci < len(sorted) && sorted[ci].Qubit == z {
			if sorted[ci].Neg {
				e = p.makeMNode(z, [4]MEdge{e, p.MZero(), p.MZero(), p.identUpTo(z)})
			} else {
				e = p.makeMNode(z, [4]MEdge{p.identUpTo(z), p.MZero(), p.MZero(), e})
			}
			ci++
		} else {
			e = p.makeMNode(z, [4]MEdge{e, p.MZero(), p.MZero(), e})
		}
	}
	return e
}
