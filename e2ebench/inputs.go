package main

import (
	"fmt"
	"math/rand"

	"qcec/internal/circuit"
	"qcec/internal/errinject"
	"qcec/internal/harness"
)

// pair is one check of a library workload.
type pair struct {
	name  string
	id    int // index among the workload's distinct checks
	base  int // index of the base pair it was drawn from
	g, gp *circuit.Circuit
	perm  []int // G' output permutation (nil = identity)
	want  bool  // ground truth: the pair is equivalent
	// mutation, when set, is the errinject seed of the mutant of gp that
	// the check is actually about (see libWorkload.materialize).
	mutation int64
}

// mediumEquiv are the Medium Table Ib pairs that end in about a second or
// less with the default flow; the others are left out (see NOTES.md).
var mediumEquiv = []string{
	"Grover 5", "Grover 6", "QFT 16", "QFT 24", "Supremacy 3 3 05",
	"Supremacy 3 3 10", "Quantum Chemistry 2x2", "rd6", "maj7", "sqr4",
}

// mutantsPerBase is how many error-injected mutants neq-flow draws from
// each base: 18 bases give 432 distinct checks.
const mutantsPerBase = 24

// libWorkload is a library-flow workload: a fixed list of base pairs and the
// distinct checks drawn from them, all checked once per pass in a
// seed-shuffled order.  equiv-flow checks each base itself; neq-flow checks
// mutantsPerBase seed-drawn error-injected mutants of each base instead.
// A mutant is kept as its errinject seed and built again before each of its
// checks, so that the run's live heap, which every collection before a check
// has to mark, holds only the bases.
type libWorkload struct {
	bases  []pair
	pairs  []pair // the distinct checks
	mutate bool
	seed   int64
}

// buildLibWorkload generates the inputs of equiv-flow or neq-flow.
func buildLibWorkload(name string, seed int64) (*libWorkload, error) {
	small, err := harness.BuildEquivalentSuite(harness.Small)
	if err != nil {
		return nil, err
	}
	compiled, err := harness.CompiledSuite(seed)
	if err != nil {
		return nil, err
	}
	var bases []pair
	add := func(p pair) {
		p.base = len(bases)
		bases = append(bases, p)
	}
	for _, inst := range small {
		add(pair{name: inst.Name, g: inst.G, gp: inst.Gp, perm: inst.OutputPerm, want: inst.WantEquivalent})
	}
	for _, cp := range compiled {
		if cp.Equivalent {
			add(pair{name: cp.Name, g: cp.Source, gp: cp.Compiled, want: true})
		}
	}
	switch name {
	case "equiv-flow":
		medium, err := harness.BuildEquivalentSuite(harness.Medium)
		if err != nil {
			return nil, err
		}
		byName := make(map[string]harness.Instance, len(medium))
		for _, inst := range medium {
			byName[inst.Name] = inst
		}
		for _, n := range mediumEquiv {
			inst, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("medium suite has no pair %q", n)
			}
			add(pair{name: inst.Name, g: inst.G, gp: inst.Gp, perm: inst.OutputPerm, want: inst.WantEquivalent})
		}
		w := &libWorkload{bases: bases, seed: seed}
		for _, b := range bases {
			b.id = len(w.pairs)
			w.pairs = append(w.pairs, b)
		}
		return w, nil
	case "neq-flow":
		w := &libWorkload{bases: bases, mutate: true, seed: seed}
		rng := rand.New(rand.NewSource(seed))
		for _, b := range bases {
			for j := 0; j < mutantsPerBase; j++ {
				p := b
				p.id, p.want, p.mutation = len(w.pairs), false, rng.Int63()|1 // nonzero: a mutant
				// Fail at set-up, not in the middle of a run.
				if _, err := materialize(p); err != nil {
					return nil, err
				}
				w.pairs = append(w.pairs, p)
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown library workload %q", name)
}

// pass returns the checks of pass k: every distinct check, in an order
// shuffled from the seed and k.
func (w *libWorkload) pass(k int) []pair {
	rng := rand.New(rand.NewSource(mix(w.seed, int64(k))))
	out := append([]pair(nil), w.pairs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// materialize returns p ready to check: for a mutant, with its G' replaced
// by the mutant.
func materialize(p pair) (pair, error) {
	if p.mutation == 0 {
		return p, nil
	}
	mutant, _, err := errinject.InjectAny(p.gp, p.mutation)
	if err != nil {
		return p, fmt.Errorf("mutating %s: %w", p.name, err)
	}
	p.gp, p.mutation = mutant, 0
	return p, nil
}

// mix derives an independent stream seed from a seed and an index
// (SplitMix64 finalizer).
func mix(seed, k int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
