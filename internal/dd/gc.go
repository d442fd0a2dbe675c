package dd

// Garbage collection.  The unique tables grow monotonically as operations
// create nodes; long simulations and equivalence checks therefore
// periodically collect nodes that are no longer reachable from the caller's
// live roots.  Collection removes dead entries from the unique tables and
// returns their arena slots to the free lists, and clears the compute
// tables, because a cached result pointing at a collected slot would break
// canonicity: the slot may be reused for a functionally different node
// while the stale cache entry resurrects the old index.

// markBits is a plain bitset sized to an arena's slot count — the arena
// makes reachability marking an indexed bit flip instead of a map insert.
type markBits []uint64

func newMarkBits(slots int) markBits { return make(markBits, (slots+63)/64) }

func (b markBits) set(i uint32) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

func (b markBits) has(i uint32) bool { return b[i>>6]&(uint64(1)<<(i&63)) != 0 }

// GC removes all nodes not reachable from the given roots (the identity
// chain is always retained) and clears the compute tables.  Gate-DD cache
// entries are re-rooted — marked live so the cached edges stay canonical
// across the collection — unless the cache has outgrown its limit, in which
// case it is flushed and rebuilt on demand.  Freed slots go onto the arena
// free lists for reuse.  It returns the number of nodes removed.
func (p *Package) GC(rootsV []VEdge, rootsM []MEdge) int {
	markedV := newMarkBits(p.vA.slots())
	markedM := newMarkBits(p.mA.slots())
	markedV.set(0)
	markedM.set(0)

	var markV func(n VRef)
	markV = func(n VRef) {
		if !markedV.set(uint32(n)) {
			return
		}
		markV(p.vA.ch[n][0])
		markV(p.vA.ch[n][1])
	}
	var markM func(n MRef)
	markM = func(n MRef) {
		if !markedM.set(uint32(n)) {
			return
		}
		for i := 0; i < 4; i++ {
			markM(p.mA.ch[n][i])
		}
	}

	for _, r := range rootsV {
		markV(r.N)
	}
	for _, r := range rootsM {
		markM(r.N)
	}
	for _, id := range p.idents {
		markM(id.N)
	}
	if len(p.gateCache) > p.gateCacheLimit {
		clear(p.gateCache)
		p.gateFlushes++
	} else {
		for _, e := range p.gateCache {
			markM(e.N)
		}
	}

	// The apply-kernel id map carries no edges, so it needs no re-rooting;
	// it is only reset when it outgrows the same bound as the gate cache.
	// That is safe exactly here because clearComputeTables below wipes the
	// apply table that interprets the ids; the epoch bump makes prepared
	// gates re-register instead of reusing ids that may be reassigned.
	if len(p.apIDs) > p.gateCacheLimit {
		clear(p.apIDs)
		p.apEpoch++
	}

	// Sweep in slot order, so the free lists — and with them every ref
	// handed out after the collection — depend only on the operation
	// sequence, then rebuild the unique tables from the survivors at their
	// current capacity.
	removed := 0
	for n := 1; n < p.vA.slots(); n++ {
		if p.vA.lv[n] >= 0 && !markedV.has(uint32(n)) {
			p.vA.release(VRef(n))
			removed++
		}
	}
	for n := 1; n < p.mA.slots(); n++ {
		if p.mA.lv[n] >= 0 && !markedM.has(uint32(n)) {
			p.mA.release(MRef(n))
			removed++
		}
	}
	p.rebuildV(len(p.vU.slots))
	p.rebuildM(len(p.mU.slots))
	p.clearComputeTables()
	p.gcRuns++
	p.gcReclaimed += uint64(removed)
	p.updateOccupancy()
	return removed
}

// gcGrowthCap bounds how far adaptive backoff may raise gcThreshold above
// its configured base: at most gcGrowthCap×gcBase.  Without the cap a
// long-lived package that once held a node-heavy working set would double
// its threshold unboundedly and effectively stop collecting for the rest of
// its life, creeping toward the watchdog hard limit.
const gcGrowthCap = 8

// MaybeGC runs GC when the unique-table population exceeds the current
// threshold, or unconditionally when the memory watchdog has bumped its
// pressure epoch since the last check (see SetPressure) — a pressure-forced
// collection also flushes the gate cache, whose entries are rebuildable
// ballast.
//
// The threshold adapts in both directions: if a threshold-triggered
// collection reclaims less than a quarter of the nodes, the threshold
// doubles (capped at gcGrowthCap times the configured base) so the package
// does not thrash on genuinely large working sets; if a collection reclaims
// at least half, occupancy has genuinely fallen and the threshold halves
// back toward the base, re-arming regular collection for the next phase of
// a long-lived package's life.  Pressure-forced collections leave the
// threshold alone: reclaiming little under memory pressure is expected, not
// a reason to collect less.  It reports whether a collection ran.
func (p *Package) MaybeGC(rootsV []VEdge, rootsM []MEdge) bool {
	forced := false
	if p.pressure != nil {
		if e := p.pressure(); e != p.pressureSeen {
			p.pressureSeen = e
			forced = true
		}
	}
	before := p.NodeCount()
	if !forced && before < p.gcThreshold {
		return false
	}
	if forced {
		p.pressureGCs++
		if len(p.gateCache) > 0 {
			clear(p.gateCache)
			p.gateFlushes++
		}
	}
	removed := p.GC(rootsV, rootsM)
	if !forced {
		switch {
		case removed*4 < before:
			if t := p.gcThreshold * 2; t <= gcGrowthCap*p.gcBase {
				p.gcThreshold = t
			}
		case removed*2 >= before && p.gcThreshold > p.gcBase:
			if t := p.gcThreshold / 2; t >= p.gcBase {
				p.gcThreshold = t
			} else {
				p.gcThreshold = p.gcBase
			}
		}
	}
	return true
}

// GCRuns returns how many collections have been performed.
func (p *Package) GCRuns() int { return p.gcRuns }

// SetGCThreshold overrides the collection trigger (primarily for tests).
// The value becomes the new base that adaptive backoff grows from (at most
// gcGrowthCap times it) and re-arms toward.
func (p *Package) SetGCThreshold(n int) {
	if n < 1 {
		n = 1
	}
	p.gcThreshold = n
	p.gcBase = n
}
