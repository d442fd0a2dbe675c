package dd

import (
	"fmt"
	"math"
	"math/cmplx"

	"qcec/internal/cn"
)

// Compute tables are power-of-two hash arrays with overwrite-on-collision
// semantics, matching the JKU package.  Unlike that package's fixed-size
// arrays they are allocated lazily and grow geometrically: creating a
// Package costs nothing, small workloads (a basis-state simulation touches a
// few hundred slots) stay in a cache-friendly 2^10 array, and insert-heavy
// workloads grow to the 2^17 ceiling, which bounds memory and keeps lookups
// O(1) regardless of circuit length.  Growth drops the previous generation —
// these are caches, so discarding entries is always sound.
const (
	ctMinBits = 10
	ctMaxBits = 17
)

// ctab is one compute table.  The zero value is ready to use (empty, no
// backing array).  Callers pass full 64-bit hashes; the table masks them
// with its current capacity, so the slot mapping changes transparently when
// it grows.
type ctab[E any] struct {
	e       []E
	inserts int // since the last growth or clear
}

// slot returns the entry for hash h, or nil while the table is unallocated
// (every lookup before the first insert is a miss).
func (t *ctab[E]) slot(h uint64) *E {
	if len(t.e) == 0 {
		return nil
	}
	return &t.e[h&uint64(len(t.e)-1)]
}

// put stores val at hash h, allocating on first use and growing 8x (up to
// the ceiling) once the inserts since the last resize outnumber the slots —
// a cheap proxy for "this workload is collision-bound at the current size".
func (t *ctab[E]) put(h uint64, val E) {
	if len(t.e) == 0 {
		t.e = make([]E, 1<<ctMinBits)
	} else if t.inserts > len(t.e) && len(t.e) < 1<<ctMaxBits {
		next := len(t.e) << 3
		if next > 1<<ctMaxBits {
			next = 1 << ctMaxBits
		}
		t.e = make([]E, next)
		t.inserts = 0
	}
	t.e[h&uint64(len(t.e)-1)] = val
	t.inserts++
}

func (t *ctab[E]) clear() {
	clear(t.e)
	t.inserts = 0
}

func mix(h, x uint64) uint64 {
	h ^= x
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

type addVEntry struct {
	aN, bN VRef
	aW, bW cn.Ref
	res    VEdge
	ok     bool
}

type addMEntry struct {
	aN, bN MRef
	aW, bW cn.Ref
	res    MEdge
	ok     bool
}

type mvEntry struct {
	m   MRef
	x   VRef
	res VEdge
	ok  bool
}

type mmEntry struct {
	a, b MRef
	res  MEdge
	ok   bool
}

type ipEntry struct {
	a, b VRef
	res  complex128
	ok   bool
}

type ctEntry struct {
	m   MRef
	res MEdge
	ok  bool
}

type krEntry struct {
	aM, bM MRef
	aV, bV VRef
	shift  int
	isV    bool // distinguishes KronV entries from KronM entries
	resM   MEdge
	resV   VEdge
	ok     bool
}

func (p *Package) clearComputeTables() {
	p.addV.clear()
	p.addM.clear()
	p.mv.clear()
	p.mm.clear()
	p.ip.clear()
	p.ct.clear()
	p.kr.clear()
	p.ap.clear()
	p.apb.clear()
}

// AddV returns the sum of two vector DDs.  Both operands must be rooted at
// the same level (or be terminal/zero edges).
func (p *Package) AddV(a, b VEdge) VEdge {
	if a.W == cn.Zero {
		return b
	}
	if b.W == cn.Zero {
		return a
	}
	if a.N == 0 && b.N == 0 {
		return VEdge{W: p.CN.Add(a.W, b.W)}
	}
	if a.N == 0 || b.N == 0 || p.vLv(a.N) != p.vLv(b.N) {
		panic("dd: AddV level mismatch")
	}
	if a.N == b.N { // same function: weights add directly
		w := p.CN.Add(a.W, b.W)
		if w == cn.Zero {
			return p.VZero()
		}
		return VEdge{W: w, N: a.N}
	}
	if b.N < a.N { // commutative: canonical operand order
		a, b = b, a
	}
	h := mix(mix(mix(mix(14695981039346656037, uint64(a.N)), uint64(a.W)), uint64(b.N)), uint64(b.W))
	if ent := p.addV.slot(h); ent != nil && ent.ok && ent.aN == a.N && ent.bN == b.N && ent.aW == a.W && ent.bW == b.W {
		p.cacheHits++
		return ent.res
	}
	p.cacheMisses++
	v := p.vLv(a.N)
	r0 := p.AddV(p.scaleV(p.vE(a.N, 0), a.W), p.scaleV(p.vE(b.N, 0), b.W))
	r1 := p.AddV(p.scaleV(p.vE(a.N, 1), a.W), p.scaleV(p.vE(b.N, 1), b.W))
	res := p.makeVNode(v, r0, r1)
	p.addV.put(h, addVEntry{aN: a.N, bN: b.N, aW: a.W, bW: b.W, res: res, ok: true})
	return res
}

// AddM returns the sum of two matrix DDs rooted at the same level.
func (p *Package) AddM(a, b MEdge) MEdge {
	if a.W == cn.Zero {
		return b
	}
	if b.W == cn.Zero {
		return a
	}
	if a.N == 0 && b.N == 0 {
		return MEdge{W: p.CN.Add(a.W, b.W)}
	}
	if a.N == 0 || b.N == 0 || p.mLv(a.N) != p.mLv(b.N) {
		panic("dd: AddM level mismatch")
	}
	if a.N == b.N {
		w := p.CN.Add(a.W, b.W)
		if w == cn.Zero {
			return p.MZero()
		}
		return MEdge{W: w, N: a.N}
	}
	if b.N < a.N {
		a, b = b, a
	}
	h := mix(mix(mix(mix(1099511628211, uint64(a.N)), uint64(a.W)), uint64(b.N)), uint64(b.W))
	if ent := p.addM.slot(h); ent != nil && ent.ok && ent.aN == a.N && ent.bN == b.N && ent.aW == a.W && ent.bW == b.W {
		p.cacheHits++
		return ent.res
	}
	p.cacheMisses++
	v := p.mLv(a.N)
	var r [4]MEdge
	for i := 0; i < 4; i++ {
		r[i] = p.AddM(p.scaleM(p.mE(a.N, i), a.W), p.scaleM(p.mE(b.N, i), b.W))
	}
	res := p.makeMNode(v, r)
	p.addM.put(h, addMEntry{aN: a.N, bN: b.N, aW: a.W, bW: b.W, res: res, ok: true})
	return res
}

// MulMV applies the matrix DD m to the vector DD x (one simulation step).
func (p *Package) MulMV(m MEdge, x VEdge) VEdge {
	if m.W == cn.Zero || x.W == cn.Zero {
		return p.VZero()
	}
	w := p.CN.Mul(m.W, x.W)
	if m.N == 0 && x.N == 0 {
		return VEdge{W: w}
	}
	if m.N == 0 || x.N == 0 || p.mLv(m.N) != p.vLv(x.N) {
		panic("dd: MulMV level mismatch")
	}
	// Identity fast path: applying I(v+1 levels) is a no-op.
	if v := p.mLv(m.N); v+1 < len(p.idents) && p.idents[v+1].N == m.N {
		return p.scaleV(VEdge{W: cn.One, N: x.N}, w)
	}
	h := mix(mix(0x51ed270b, uint64(m.N)), uint64(x.N))
	if ent := p.mv.slot(h); ent != nil && ent.ok && ent.m == m.N && ent.x == x.N {
		p.cacheHits++
		return p.scaleV(ent.res, w)
	}
	p.cacheMisses++
	v := p.mLv(m.N)
	x0, x1 := p.vE(x.N, 0), p.vE(x.N, 1)
	r0 := p.AddV(p.MulMV(p.mE(m.N, 0), x0), p.MulMV(p.mE(m.N, 1), x1))
	r1 := p.AddV(p.MulMV(p.mE(m.N, 2), x0), p.MulMV(p.mE(m.N, 3), x1))
	res := p.makeVNode(v, r0, r1)
	p.mv.put(h, mvEntry{m: m.N, x: x.N, res: res, ok: true})
	return p.scaleV(res, w)
}

// MulMM returns the matrix product a·b (one equivalence-checking step).
func (p *Package) MulMM(a, b MEdge) MEdge {
	if a.W == cn.Zero || b.W == cn.Zero {
		return p.MZero()
	}
	w := p.CN.Mul(a.W, b.W)
	if a.N == 0 && b.N == 0 {
		return MEdge{W: w}
	}
	if a.N == 0 || b.N == 0 || p.mLv(a.N) != p.mLv(b.N) {
		panic("dd: MulMM level mismatch")
	}
	if v := p.mLv(a.N); v+1 < len(p.idents) {
		if p.idents[v+1].N == a.N {
			return p.scaleM(MEdge{W: cn.One, N: b.N}, w)
		}
		if p.idents[v+1].N == b.N {
			return p.scaleM(MEdge{W: cn.One, N: a.N}, w)
		}
	}
	h := mix(mix(0x2545F4914F6CDD1D, uint64(a.N)), uint64(b.N))
	if ent := p.mm.slot(h); ent != nil && ent.ok && ent.a == a.N && ent.b == b.N {
		p.cacheHits++
		return p.scaleM(ent.res, w)
	}
	p.cacheMisses++
	v := p.mLv(a.N)
	var r [4]MEdge
	for row := 0; row < 2; row++ {
		for col := 0; col < 2; col++ {
			r[row*2+col] = p.AddM(
				p.MulMM(p.mE(a.N, row*2), p.mE(b.N, col)),
				p.MulMM(p.mE(a.N, row*2+1), p.mE(b.N, 2+col)),
			)
		}
	}
	res := p.makeMNode(v, r)
	p.mm.put(h, mmEntry{a: a.N, b: b.N, res: res, ok: true})
	return p.scaleM(res, w)
}

// InnerProduct returns <a|b>, i.e. the complex overlap of two states.  This
// is exactly the quantity the paper compares per simulation run
// (Sec. IV-A: <u_i|u'_i> = 1 for all i iff the circuits are equivalent).
func (p *Package) InnerProduct(a, b VEdge) complex128 {
	if a.W == cn.Zero || b.W == cn.Zero {
		return 0
	}
	w := cmplx.Conj(p.CN.Value(a.W)) * p.CN.Value(b.W)
	if a.N == 0 && b.N == 0 {
		return w
	}
	if a.N == 0 || b.N == 0 || p.vLv(a.N) != p.vLv(b.N) {
		panic("dd: InnerProduct level mismatch")
	}
	h := mix(mix(0x9E3779B1, uint64(a.N)), uint64(b.N))
	if ent := p.ip.slot(h); ent != nil && ent.ok && ent.a == a.N && ent.b == b.N {
		p.cacheHits++
		return w * ent.res
	}
	p.cacheMisses++
	f := p.InnerProduct(p.vE(a.N, 0), p.vE(b.N, 0)) + p.InnerProduct(p.vE(a.N, 1), p.vE(b.N, 1))
	p.ip.put(h, ipEntry{a: a.N, b: b.N, res: f, ok: true})
	return w * f
}

// Fidelity returns |<a|b>|^2.
func (p *Package) Fidelity(a, b VEdge) float64 {
	ipv := p.InnerProduct(a, b)
	re, im := real(ipv), imag(ipv)
	return re*re + im*im
}

// Norm returns the 2-norm of a state DD.
func (p *Package) Norm(a VEdge) float64 {
	n2 := real(p.InnerProduct(a, a))
	if n2 < 0 {
		n2 = 0
	}
	return math.Sqrt(n2)
}

// ConjugateTranspose returns the adjoint of a matrix DD.
func (p *Package) ConjugateTranspose(m MEdge) MEdge {
	if m.W == cn.Zero {
		return p.MZero()
	}
	wc := p.CN.Conj(m.W)
	if m.N == 0 {
		return MEdge{W: wc}
	}
	h := mix(0xC6A4A7935BD1E995, uint64(m.N))
	if ent := p.ct.slot(h); ent != nil && ent.ok && ent.m == m.N {
		p.cacheHits++
		return p.scaleM(ent.res, wc)
	}
	p.cacheMisses++
	res := p.makeMNode(p.mLv(m.N), [4]MEdge{
		p.ConjugateTranspose(p.mE(m.N, 0)),
		p.ConjugateTranspose(p.mE(m.N, 2)),
		p.ConjugateTranspose(p.mE(m.N, 1)),
		p.ConjugateTranspose(p.mE(m.N, 3)),
	})
	p.ct.put(h, ctEntry{m: m.N, res: res, ok: true})
	return p.scaleM(res, wc)
}

// KronM returns a ⊗ b where b occupies the bLevels lowest levels and a is
// shifted up accordingly.  The caller must ensure the combined level range
// fits the package.
func (p *Package) KronM(a, b MEdge, bLevels int) MEdge {
	if a.W == cn.Zero || b.W == cn.Zero {
		return p.MZero()
	}
	if a.N == 0 {
		return p.scaleM(b, a.W)
	}
	if p.mLv(a.N)+bLevels >= p.n {
		panic(fmt.Sprintf("dd: KronM level overflow (a level %d, shift %d)", p.mLv(a.N), bLevels))
	}
	h := mix(mix(mix(0xA0761D6478BD642F, uint64(a.N)), uint64(b.N)), uint64(bLevels))
	if ent := p.kr.slot(h); ent != nil && ent.ok && ent.aM == a.N && ent.bM == b.N && ent.shift == bLevels && !ent.isV {
		p.cacheHits++
		return p.scaleM(ent.resM, a.W)
	}
	p.cacheMisses++
	var r [4]MEdge
	for i := 0; i < 4; i++ {
		r[i] = p.KronM(p.mE(a.N, i), b, bLevels)
	}
	res := p.makeMNode(p.mLv(a.N)+bLevels, r)
	p.kr.put(h, krEntry{aM: a.N, bM: b.N, shift: bLevels, resM: res, ok: true})
	return p.scaleM(res, a.W)
}

// KronV returns a ⊗ b for state DDs, with b occupying the bLevels lowest
// levels.
func (p *Package) KronV(a, b VEdge, bLevels int) VEdge {
	if a.W == cn.Zero || b.W == cn.Zero {
		return p.VZero()
	}
	if a.N == 0 {
		return p.scaleV(b, a.W)
	}
	if p.vLv(a.N)+bLevels >= p.n {
		panic(fmt.Sprintf("dd: KronV level overflow (a level %d, shift %d)", p.vLv(a.N), bLevels))
	}
	h := mix(mix(mix(0xE7037ED1A0B428DB, uint64(a.N)), uint64(b.N)), uint64(bLevels))
	if ent := p.kr.slot(h); ent != nil && ent.ok && ent.aV == a.N && ent.bV == b.N && ent.shift == bLevels && ent.isV {
		p.cacheHits++
		return p.scaleV(ent.resV, a.W)
	}
	p.cacheMisses++
	r0 := p.KronV(p.vE(a.N, 0), b, bLevels)
	r1 := p.KronV(p.vE(a.N, 1), b, bLevels)
	res := p.makeVNode(p.vLv(a.N)+bLevels, r0, r1)
	p.kr.put(h, krEntry{aV: a.N, bV: b.N, shift: bLevels, isV: true, resV: res, ok: true})
	return p.scaleV(res, a.W)
}
