// Package cn provides an interning table for complex numbers with
// tolerance-based lookup.
//
// Decision-diagram packages for quantum computing (QMDDs) require edge
// weights to be canonical: two weights that are numerically "the same" (up to
// a small tolerance that absorbs floating-point round-off) must be
// represented by the same entry, so that node hashing and structural
// equality reduce to comparing 32-bit refs.  This package is the Go
// counterpart of the "complex table" used by the JKU/MQT DD packages.
//
// Storage is pointer-free: the values live in one flat []complex128 slab
// addressed by a Ref (the insertion-order id), and the tolerance index over
// them is an open-addressed []uint64 table, so a Table — and every DD
// structure holding its refs — is invisible to the Go garbage collector.
//
// Concurrency: a Table is NOT safe for concurrent use, and refs from
// different Tables must never be mixed (a ref only means something within
// the table that issued it).  Concurrent checkers therefore run one
// dd.Package — and hence one Table — per goroutine; see the internal/dd
// package docs.
package cn

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Ref addresses an interned complex number in its Table's slab.  Refs are
// dense insertion-order ids: Zero and One are pre-interned as 0 and 1 and
// every later value takes the next id.  Two refs from the same Table are
// numerically equal (up to the table tolerance) if and only if they are the
// same ref.
type Ref uint32

// Zero and One are the canonical refs of the exact values 0 and 1 in every
// Table, so hot-path comparisons against them are constant comparisons.
const (
	Zero Ref = 0
	One  Ref = 1
)

type bucketKey struct {
	re, im int64
}

// Table interns complex numbers.  It is not safe for concurrent use.
//
// vals[r] holds the value of ref r and keys[r] its quantised bucket.  index
// is an open-addressed, linear-probing hash table over the buckets: each
// slot holds hash32<<32 | ref, and 0 means empty (Zero and One are never
// indexed — Lookup snaps to them before probing — so no stored slot is 0).
// Entries are never deleted and growth re-inserts them in ref order, so a
// probe from a bucket's home slot meets that bucket's entries in insertion
// order.
type Table struct {
	tol   float64
	vals  []complex128
	keys  []bucketKey
	index []uint64

	lookups int64
	hits    int64
}

// DefaultTolerance is the tolerance used by NewDefault.  It matches the order
// of magnitude used by the JKU DD package and comfortably absorbs the
// round-off accumulated by circuits with hundreds of thousands of gates.
const DefaultTolerance = 1e-10

// AgreementTolerance derives the tolerance for comparing simulated results
// (state overlaps, phase anchors, rotation angles) from a DD weight
// tolerance (0 selects DefaultTolerance).  Weight round-off compounds over
// the gate sequence, so the bound sits four orders of magnitude above the
// interning tolerance — 1e-6 at the default — and is capped at 1e-3 so a
// coarse custom tolerance can never silently accept genuinely different
// results.
func AgreementTolerance(weightTol float64) float64 {
	if weightTol == 0 {
		weightTol = DefaultTolerance
	}
	return min(weightTol*1e4, 1e-3)
}

// indexInitSlots sizes the index's first allocation (a power of two).
const indexInitSlots = 1 << 10

// NewTable creates a table with the given tolerance.  The tolerance must be
// positive and smaller than 1e-2 (larger values would merge numerically
// distinct amplitudes of real circuits).
func NewTable(tol float64) *Table {
	if tol <= 0 || tol >= 1e-2 {
		panic(fmt.Sprintf("cn: invalid tolerance %g", tol))
	}
	t := &Table{
		tol:   tol,
		vals:  make([]complex128, 2, indexInitSlots/2),
		keys:  make([]bucketKey, 2, indexInitSlots/2),
		index: make([]uint64, indexInitSlots),
	}
	t.vals[One] = 1
	return t
}

// NewDefault creates a table with DefaultTolerance.
func NewDefault() *Table { return NewTable(DefaultTolerance) }

// Tolerance returns the table tolerance.
func (t *Table) Tolerance() float64 { return t.tol }

// Size returns the number of distinct interned values.
func (t *Table) Size() int { return len(t.vals) }

// Stats returns the number of lookups performed and how many of them hit an
// existing entry.
func (t *Table) Stats() (lookups, hits int64) { return t.lookups, t.hits }

// ResetStats zeroes the lookup counters without touching the interned
// values; a pooled DD package calls it between jobs so each job's snapshot
// reports only its own interning activity.
func (t *Table) ResetStats() { t.lookups, t.hits = 0, 0 }

// Value returns the numeric value of r.
func (t *Table) Value(r Ref) complex128 { return t.vals[r] }

// Abs returns the magnitude |r|.
func (t *Table) Abs(r Ref) float64 { return cmplx.Abs(t.vals[r]) }

// Abs2 returns the squared magnitude |r|^2.
func (t *Table) Abs2(r Ref) float64 {
	c := t.vals[r]
	re, im := real(c), imag(c)
	return re*re + im*im
}

// Format renders r as a complex literal.
func (t *Table) Format(r Ref) string {
	c := t.vals[r]
	return fmt.Sprintf("%g%+gi", real(c), imag(c))
}

func (t *Table) key(c complex128) bucketKey {
	return bucketKey{
		re: int64(math.Floor(real(c) / t.tol)),
		im: int64(math.Floor(imag(c) / t.tol)),
	}
}

// bucketHash is a splitmix64-style finalizer over the bucket coordinates:
// the low bits pick the home slot, the high 32 bits are the stored tag.
func bucketHash(k bucketKey) uint64 {
	h := uint64(k.re)*0x9E3779B97F4A7C15 ^ uint64(k.im)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// find returns the first entry of bucket k, in insertion order, that lies
// within tolerance of c.
func (t *Table) find(k bucketKey, c complex128) (Ref, bool) {
	h := bucketHash(k)
	tag := h >> 32
	mask := uint64(len(t.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.index[i]
		if s == 0 {
			return 0, false
		}
		if s>>32 == tag {
			if r := Ref(uint32(s)); t.keys[r] == k && t.approx(t.vals[r], c) {
				return r, true
			}
		}
	}
}

// place stores ref r in the first empty slot of its bucket's probe
// sequence.
func (t *Table) place(r Ref) {
	h := bucketHash(t.keys[r])
	mask := uint64(len(t.index) - 1)
	i := h & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = h>>32<<32 | uint64(r)
}

func (t *Table) insert(c complex128, k bucketKey) Ref {
	r := Ref(len(t.vals))
	t.vals = append(t.vals, c)
	t.keys = append(t.keys, k)
	// Keep the index at most half full; growth re-inserts in ref order,
	// which preserves every bucket's insertion order along its probe run.
	if 2*(len(t.vals)-2) > len(t.index) {
		t.index = make([]uint64, 2*len(t.index))
		for q := Ref(2); q < r; q++ {
			t.place(q)
		}
	}
	t.place(r)
	return r
}

func (t *Table) approx(a, b complex128) bool {
	return math.Abs(real(a)-real(b)) <= t.tol && math.Abs(imag(a)-imag(b)) <= t.tol
}

// NonFiniteError is the panic value raised by Lookup on a NaN or infinite
// input.  Non-finite values would corrupt the bucket quantization, so they
// cannot be interned; they are reachable from user input (e.g. a rotation
// gate with a non-finite angle), so the flow layers (internal/core,
// internal/ec, internal/portfolio) recover this panic at their isolation
// boundaries and surface it as a typed report error instead of crashing.
type NonFiniteError struct {
	// Value is the offending complex number.
	Value complex128
}

// Error formats the offending value.
func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("cn: non-finite value %v", e.Value)
}

// Lookup returns the canonical ref for c, interning it if no value within
// the tolerance exists yet.  Values within tolerance of 0 or 1 snap exactly
// to Zero / One.  Otherwise the 3x3 neighbourhood of c's quantisation
// bucket is scanned (real offset outer, imaginary offset inner, each -1..1,
// entries of one bucket in insertion order) and the first entry within
// tolerance wins.  Non-finite values panic with a *NonFiniteError: they
// arise from non-finite user input (gate parameters) or an upstream numeric
// bug, and would corrupt the bucket quantization.
func (t *Table) Lookup(c complex128) Ref {
	if math.IsNaN(real(c)) || math.IsNaN(imag(c)) ||
		math.IsInf(real(c), 0) || math.IsInf(imag(c), 0) {
		panic(&NonFiniteError{Value: c})
	}
	t.lookups++
	// Fast paths for the two values that dominate DD construction.
	if t.approx(c, 0) {
		t.hits++
		return Zero
	}
	if t.approx(c, 1) {
		t.hits++
		return One
	}
	k := t.key(c)
	// A value within tolerance may have been quantized into a neighboring
	// bucket; scan the 3x3 neighborhood.
	for dr := int64(-1); dr <= 1; dr++ {
		for di := int64(-1); di <= 1; di++ {
			if r, ok := t.find(bucketKey{k.re + dr, k.im + di}, c); ok {
				t.hits++
				return r
			}
		}
	}
	return t.insert(c, k)
}

// LookupReal is shorthand for Lookup(complex(r, 0)).
func (t *Table) LookupReal(r float64) Ref { return t.Lookup(complex(r, 0)) }

// Mul returns the interned product of two values.
func (t *Table) Mul(a, b Ref) Ref {
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One {
		return b
	}
	if b == One {
		return a
	}
	return t.Lookup(t.vals[a] * t.vals[b])
}

// Div returns the interned quotient a/b.  b must be non-zero.
func (t *Table) Div(a, b Ref) Ref {
	if b == Zero {
		panic("cn: division by interned zero")
	}
	if a == Zero {
		return Zero
	}
	if b == One {
		return a
	}
	return t.Lookup(t.vals[a] / t.vals[b])
}

// Add returns the interned sum of two values.
func (t *Table) Add(a, b Ref) Ref {
	if a == Zero {
		return b
	}
	if b == Zero {
		return a
	}
	return t.Lookup(t.vals[a] + t.vals[b])
}

// Neg returns the interned negation of a value.
func (t *Table) Neg(a Ref) Ref {
	if a == Zero {
		return Zero
	}
	return t.Lookup(-t.vals[a])
}

// Conj returns the interned complex conjugate of a value.
func (t *Table) Conj(a Ref) Ref {
	if imag(t.vals[a]) == 0 {
		return a
	}
	return t.Lookup(cmplx.Conj(t.vals[a]))
}
