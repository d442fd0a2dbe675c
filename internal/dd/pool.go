package dd

import (
	"sync"
	"time"
)

// Warm-package pooling.  Creating a Package is cheap since the lazy compute
// tables (PR 2), but the first job on a fresh package still pays to intern
// every distinct edge weight, grow the compute tables to working size, and
// build every distinct gate DD.  A long-running service (internal/server)
// checks thousands of jobs over the same few gate alphabets, so Reset +
// Pool let it keep those warm across jobs instead of rebuilding them per
// request.

// Reset returns the package to a like-new state for the next job while
// keeping what is expensive to rebuild:
//
//   - kept: the interned weight table (its refs stay valid — gate and
//     apply keys hold weight refs), the gate-DD cache with its node
//     structure (re-rooted by the collection below), the apply-kernel
//     gate-id map, the grown compute-table and unique-table capacity, the
//     identity chain, and the arena slabs themselves — dead slots go onto
//     the free lists and the backing arrays are recycled in place, so a
//     pooled worker package re-allocates nothing on its next job;
//   - cleared: all nodes unreachable from the kept roots, every compute-table
//     entry (in place, capacity retained), and all statistics counters, so
//     the next job's Snapshot reports only its own work;
//   - cleared, so per-job control state can never leak across jobs: the node
//     limit, the operation deadline, the cancellation hook, the memory
//     watchdog's pressure hook and last-seen epoch, and the fault injector
//     (re-copied from the process-wide default, exactly as New does).
//
// Reset must be called by the package's owning goroutine, like every other
// method; a Pool serializes ownership handover.
func (p *Package) Reset() {
	// Per-job control state first: nothing below may observe a stale hook.
	p.nodeLimit = 0
	p.deadline = time.Time{}
	p.cancel = nil
	p.pressure = nil
	p.pressureSeen = 0
	p.allocCount = 0
	if box, ok := defaultInjector.Load().(injectorBox); ok {
		p.faults = box.fi
	} else {
		p.faults = nil
	}

	// Restore the cache configuration a previous job may have customized,
	// then collect everything not reachable from the warm roots.  GC keeps
	// the gate cache and identity chain live and clears the compute tables
	// in place (ctab.clear zeroes entries but keeps the backing array).
	p.gateCacheOn = true
	p.gateCacheLimit = DefaultGateCacheLimit
	p.gcThreshold = DefaultGCThreshold
	p.gcBase = DefaultGCThreshold
	p.GC(nil, nil)

	// Zero the counters after the collection so the reset's own GC does not
	// appear in the next job's statistics.
	p.nodesCreated = 0
	p.gcRuns = 0
	p.gcReclaimed = 0
	p.cacheHits, p.cacheMisses = 0, 0
	p.uniqueLookups, p.uniqueHits = 0, 0
	p.gateHits, p.gateMisses, p.gateFlushes = 0, 0, 0
	p.applyCalls, p.applyDiag, p.applyPerm, p.applyGenericCt = 0, 0, 0, 0
	p.applyHits, p.applyMisses = 0, 0
	p.pressureGCs = 0
	p.faultEvents = 0
	p.CN.ResetStats()
	p.updateOccupancy()
}

// poolKey buckets pooled packages: a package is only reusable for a job on
// the same register size and weight tolerance.
type poolKey struct {
	n   int
	tol float64
}

// DefaultPoolPerBucket bounds how many idle packages a Pool retains per
// (qubits, tolerance) bucket.  Idle packages pin their warm gate caches and
// compute-table arrays, so the bound is the pool's memory ceiling; a serving
// deployment sizes it to its worker count.
const DefaultPoolPerBucket = 8

// Pool is a bounded free list of warm Packages, safe for concurrent use.
// Get hands out exclusive ownership (the Package itself remains
// single-goroutine); Put resets the package and, if the bucket has room,
// retains it for the next Get.  Packages whose state is suspect — e.g. after
// a recovered panic under fault injection — should be dropped on the floor
// and recorded with Forget instead of returned.
type Pool struct {
	mu        sync.Mutex
	perBucket int
	idle      map[poolKey][]*Package

	gets, reuses, puts, discards, forgotten uint64
}

// PoolStats is a snapshot of a Pool's activity.
type PoolStats struct {
	Gets      uint64 // packages handed out
	Reuses    uint64 // of those, served from the free list (warm)
	Puts      uint64 // packages returned
	Discards  uint64 // returns dropped because the bucket was full
	Forgotten uint64 // suspect packages recorded via Forget
	Idle      int    // packages currently pooled across all buckets
}

// NewPool creates a pool retaining up to perBucket idle packages per
// (qubits, tolerance) bucket (<= 0 selects DefaultPoolPerBucket).
func NewPool(perBucket int) *Pool {
	if perBucket <= 0 {
		perBucket = DefaultPoolPerBucket
	}
	return &Pool{perBucket: perBucket, idle: make(map[poolKey][]*Package)}
}

// Get returns a package for n qubits at the given weight tolerance: a warm
// pooled one when available, a fresh one otherwise.  The caller owns the
// package exclusively until it calls Put (or drops it).
func (pl *Pool) Get(n int, tol float64) *Package {
	k := poolKey{n: n, tol: tol}
	pl.mu.Lock()
	pl.gets++
	if s := pl.idle[k]; len(s) > 0 {
		p := s[len(s)-1]
		s[len(s)-1] = nil
		pl.idle[k] = s[:len(s)-1]
		pl.reuses++
		pl.mu.Unlock()
		return p
	}
	pl.mu.Unlock()
	return New(n, tol)
}

// Put resets the package and returns it to its bucket; when the bucket is
// full the package is dropped (the Go GC reclaims it).  The caller must not
// touch the package — or any edge obtained from it — afterwards.
func (pl *Pool) Put(p *Package) {
	if p == nil {
		return
	}
	// Reset outside the lock: the mark phase over a large warm gate cache is
	// the expensive part, and it only touches p, which the caller still owns.
	p.Reset()
	k := poolKey{n: p.n, tol: p.CN.Tolerance()}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.puts++
	if len(pl.idle[k]) >= pl.perBucket {
		pl.discards++
		return
	}
	pl.idle[k] = append(pl.idle[k], p)
}

// Forget records that a package obtained from Get was intentionally not
// returned — the caller recovered a genuine panic on it and its internal
// state (e.g. an injected non-finite weight in the interning table) can no
// longer be trusted.
func (pl *Pool) Forget() {
	pl.mu.Lock()
	pl.forgotten++
	pl.mu.Unlock()
}

// Stats returns a snapshot of the pool's activity.
func (pl *Pool) Stats() PoolStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	idle := 0
	for _, s := range pl.idle {
		idle += len(s)
	}
	return PoolStats{
		Gets:      pl.gets,
		Reuses:    pl.reuses,
		Puts:      pl.puts,
		Discards:  pl.discards,
		Forgotten: pl.forgotten,
		Idle:      idle,
	}
}
