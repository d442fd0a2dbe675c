package dd

import (
	"math/cmplx"

	"qcec/internal/cn"
)

// Trace returns tr(m) for a matrix DD rooted at the top level.
func (p *Package) Trace(m MEdge) complex128 {
	memo := make(map[MRef]complex128)
	var rec func(e MEdge) complex128
	rec = func(e MEdge) complex128 {
		if e.W == cn.Zero {
			return 0
		}
		if e.N == 0 {
			return p.CN.Value(e.W)
		}
		if v, ok := memo[e.N]; ok {
			return p.CN.Value(e.W) * v
		}
		v := rec(p.mE(e.N, 0)) + rec(p.mE(e.N, 3))
		memo[e.N] = v
		return p.CN.Value(e.W) * v
	}
	return rec(m)
}

// HilbertSchmidt returns <A, B> = tr(A† B), computed directly on the two
// DDs (no matrix product is formed).  For n-qubit unitaries,
// |tr(A† B)| = 2^n iff A and B are equal up to a global phase, which makes
// this the numerically robust equivalence measure behind the process
// fidelity.
func (p *Package) HilbertSchmidt(a, b MEdge) complex128 {
	type key struct {
		a, b MRef
	}
	memo := make(map[key]complex128)
	var rec func(a, b MEdge) complex128
	rec = func(a, b MEdge) complex128 {
		if a.W == cn.Zero || b.W == cn.Zero {
			return 0
		}
		w := cmplx.Conj(p.CN.Value(a.W)) * p.CN.Value(b.W)
		if a.N == 0 && b.N == 0 {
			return w
		}
		if a.N == 0 || b.N == 0 || p.mLv(a.N) != p.mLv(b.N) {
			panic("dd: HilbertSchmidt level mismatch")
		}
		k := key{a.N, b.N}
		if v, ok := memo[k]; ok {
			return w * v
		}
		var v complex128
		for i := 0; i < 4; i++ {
			v += rec(p.mE(a.N, i), p.mE(b.N, i))
		}
		memo[k] = v
		return w * v
	}
	return rec(a, b)
}

// ProcessFidelity returns |tr(A† B)|² / 4^n — 1 iff the unitaries agree up
// to global phase.
func (p *Package) ProcessFidelity(a, b MEdge) float64 {
	hs := p.HilbertSchmidt(a, b)
	dim := float64(uint64(1) << uint(p.n))
	re, im := real(hs), imag(hs)
	return (re*re + im*im) / (dim * dim)
}
