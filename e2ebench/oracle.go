package main

import (
	"strings"

	"qcec/internal/circuit"
	"qcec/internal/dense"
)

// maxDenseQubits bounds the register a counterexample is re-simulated on.
// Every pair of the workloads that can yield a counterexample is far below
// it; a counterexample on a larger register counts as not reproduced.
const maxDenseQubits = 16

// denseTol is the element-wise agreement bound of the dense re-simulation,
// the flow's default state-agreement tolerance.
const denseTol = 1e-6

// witness classifies a counterexample re-simulated on the dense simulator.
type witness int

const (
	// witnessOK: G and G' differ on the reported input, as promised.
	witnessOK witness = iota
	// witnessInverse: G and G' agree on the input but their inverses do
	// not, so the pair is proven different while the reported input does
	// not show it.  Only the complete routine reports such inputs: it reads
	// the witness off a column of the miter U'·U†, which is a column of the
	// inverses (see NOTES.md).
	witnessInverse
	// witnessBad: the input does not distinguish G from G', and it came
	// from another stage or does not distinguish the inverses either.
	witnessBad
)

// checkWitness re-simulates a counterexample on the dense simulator: it runs
// both circuits on basis state |input>, maps G' output wire perm[q] back to
// wire q when perm is set, and compares the outputs.  When they agree and
// decidedBy names the complete routine ("ec:..."), it compares the inverse
// circuits on the same input the same way.
func checkWitness(g, gp *circuit.Circuit, perm []int, input uint64, decidedBy string) witness {
	if g.N != gp.N || g.N > maxDenseQubits || input >= uint64(1)<<uint(g.N) {
		return witnessBad
	}
	u := runDense(g, input)
	v := runDense(gp, input)
	if perm != nil {
		v = unpermute(v, perm)
	}
	if !dense.ApproxEqual(u, v, denseTol) {
		return witnessOK
	}
	if !strings.HasPrefix(decidedBy, "ec:") {
		return witnessBad
	}
	// With Q the relabelling of unpermute and P its inverse, equivalence
	// means Q·U' = U, so U† = U'†·P: compare U†|input> with U'†|P(input)>.
	pIn := input
	if perm != nil {
		pIn = unpermuteIndex(input, perm)
	}
	if !dense.ApproxEqual(runDense(g.Inverse(), input), runDense(gp.Inverse(), pIn), denseTol) {
		return witnessInverse
	}
	return witnessBad
}

// runDense simulates c on |input> with the dense simulator.
func runDense(c *circuit.Circuit, input uint64) dense.State {
	s := dense.BasisState(c.N, input)
	for _, g := range c.Gates {
		applyDense(s, g)
	}
	return s
}

func applyDense(s dense.State, g circuit.Gate) {
	cs := make([]dense.Control, len(g.Controls))
	for i, c := range g.Controls {
		cs[i] = dense.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	if g.Kind == circuit.SWAP {
		// A (controlled) SWAP is three CX gates sharing the SWAP's controls.
		x := [2][2]complex128{{0, 1}, {1, 0}}
		a, b := g.Target, g.Target2
		for _, t := range [][2]int{{a, b}, {b, a}, {a, b}} {
			s.ApplyGate(x, t[1], append([]dense.Control{{Qubit: t[0]}}, cs...))
		}
		return
	}
	s.ApplyGate(g.Matrix(), g.Target, cs)
}

// unpermute relabels a G' output so that wire q of the result carries what
// G' output wire perm[q] carried.
func unpermute(v dense.State, perm []int) dense.State {
	out := make(dense.State, len(v))
	for x, amp := range v {
		out[permuteIndex(uint64(x), perm)] = amp
	}
	return out
}

// unpermuteIndex returns the basis index whose bit perm[q] is bit q of x,
// the inverse of permuteIndex.
func unpermuteIndex(x uint64, perm []int) uint64 {
	var y uint64
	for q, w := range perm {
		y |= (x >> uint(q) & 1) << uint(w)
	}
	return y
}

// permuteIndex returns the basis index whose bit q is bit perm[q] of x.
func permuteIndex(x uint64, perm []int) uint64 {
	var y uint64
	for q, w := range perm {
		y |= (x >> uint(w) & 1) << uint(q)
	}
	return y
}
