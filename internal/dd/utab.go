package dd

import "qcec/internal/cn"

// Unique tables.  Each arena has one: an open-addressed, linear-probing
// hash table of uint64 slots, each holding hash32<<32 | ref (0 = empty; the
// terminal, ref 0, is never stored, so no occupied slot is 0).  The table
// holds no node data of its own: a probe compares the stored 32-bit tag
// first and only on a tag match compares the arena slot itself, so every
// node is stored exactly once, in its arena.  The table is a plain []uint64,
// invisible to the Go garbage collector.
//
// Collections (see GC) sweep the arena in slot order and then rebuild the
// table from the surviving slots, again in slot order, so the free lists
// and every later ref assignment are a deterministic function of the
// operation sequence.  Rebuilds keep the table's capacity.

// utabInitSlots sizes a unique table's first allocation (a power of two).
const utabInitSlots = 1 << 10

// utab is one unique table.
type utab struct {
	slots []uint64
	count int // occupied slots (= live nodes of the arena)
}

func (t *utab) init() { t.slots = make([]uint64, utabInitSlots) }

// put stores ref r under hash h in the first empty slot of h's probe run.
func (t *utab) put(h uint64, r uint32) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = h>>32<<32 | uint64(r)
	t.count++
}

// full reports whether the table must grow before the next insert (it is
// kept at most half full, which keeps linear-probing runs short).
func (t *utab) full() bool { return 2*(t.count+1) > len(t.slots) }

// holds reports whether ref r is stored under hash h.
func (t *utab) holds(h uint64, r uint32) bool {
	want := h>>32<<32 | uint64(r)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if t.slots[i] == want {
			return true
		}
	}
	return false
}

// vHash is the unique-table hash of a vector node signature.
func vHash(v int, ch [2]VRef, wt [2]cn.Ref) uint64 {
	h := mix(0x6A09E667F3BCC909, uint64(v))
	h = mix(h, uint64(ch[0])|uint64(ch[1])<<32)
	return mix(h, uint64(wt[0])|uint64(wt[1])<<32)
}

// mHash is the unique-table hash of a matrix node signature.
func mHash(v int, ch [4]MRef, wt [4]cn.Ref) uint64 {
	h := mix(0xBB67AE8584CAA73B, uint64(v))
	h = mix(h, uint64(ch[0])|uint64(ch[1])<<32)
	h = mix(h, uint64(ch[2])|uint64(ch[3])<<32)
	h = mix(h, uint64(wt[0])|uint64(wt[1])<<32)
	return mix(h, uint64(wt[2])|uint64(wt[3])<<32)
}

func (p *Package) vHashOf(n VRef) uint64 { return vHash(p.vLv(n), p.vA.ch[n], p.vA.wt[n]) }
func (p *Package) mHashOf(n MRef) uint64 { return mHash(p.mLv(n), p.mA.ch[n], p.mA.wt[n]) }

// internV returns the vector node with the given signature, creating it if
// the unique table holds none.
func (p *Package) internV(v int, ch [2]VRef, wt [2]cn.Ref) VRef {
	p.uniqueLookups++
	h := vHash(v, ch, wt)
	tag := h >> 32
	t := &p.vU
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			break
		}
		if s>>32 == tag {
			n := VRef(uint32(s))
			if p.vA.ch[n] == ch && p.vA.wt[n] == wt && p.vLv(n) == v {
				p.uniqueHits++
				return n
			}
		}
	}
	if t.full() {
		p.rebuildV(2 * len(t.slots))
	}
	n := p.vA.alloc()
	p.vA.lv[n] = int8(v)
	p.vA.ch[n] = ch
	p.vA.wt[n] = wt
	t.put(h, uint32(n))
	p.nodesCreated++
	p.checkLimit()
	return n
}

// internM is the matrix counterpart of internV.
func (p *Package) internM(v int, ch [4]MRef, wt [4]cn.Ref) MRef {
	p.uniqueLookups++
	h := mHash(v, ch, wt)
	tag := h >> 32
	t := &p.mU
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			break
		}
		if s>>32 == tag {
			n := MRef(uint32(s))
			if p.mA.ch[n] == ch && p.mA.wt[n] == wt && p.mLv(n) == v {
				p.uniqueHits++
				return n
			}
		}
	}
	if t.full() {
		p.rebuildM(2 * len(t.slots))
	}
	n := p.mA.alloc()
	p.mA.lv[n] = int8(v)
	p.mA.ch[n] = ch
	p.mA.wt[n] = wt
	t.put(h, uint32(n))
	p.nodesCreated++
	p.checkLimit()
	return n
}

// rebuildV refills the vector unique table with every allocated arena slot
// (level >= 0), in slot order, at the given capacity (reusing the backing
// array when the capacity is unchanged).
func (p *Package) rebuildV(slots int) {
	t := &p.vU
	if slots == len(t.slots) {
		clear(t.slots)
	} else {
		t.slots = make([]uint64, slots)
	}
	t.count = 0
	for n := 1; n < p.vA.slots(); n++ {
		if p.vA.lv[n] >= 0 {
			t.put(p.vHashOf(VRef(n)), uint32(n))
		}
	}
}

// rebuildM is the matrix counterpart of rebuildV.
func (p *Package) rebuildM(slots int) {
	t := &p.mU
	if slots == len(t.slots) {
		clear(t.slots)
	} else {
		t.slots = make([]uint64, slots)
	}
	t.count = 0
	for n := 1; n < p.mA.slots(); n++ {
		if p.mA.lv[n] >= 0 {
			t.put(p.mHashOf(MRef(n)), uint32(n))
		}
	}
}
