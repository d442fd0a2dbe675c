// Package sim implements decision-diagram based simulation of quantum
// circuits — the engine behind the paper's headline result.
//
// Simulating a circuit on a computational basis state |i> computes the i-th
// column of the circuit's system matrix using only matrix-vector products
// (paper Sec. III-B).  This is dramatically cheaper than the matrix-matrix
// products needed to construct the complete functionality, which is exactly
// the asymmetry the proposed equivalence-checking flow exploits.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"qcec/internal/circuit"
	"qcec/internal/dd"
)

// ToDDControls converts circuit controls to DD controls.
func ToDDControls(cs []circuit.Control) []dd.Control {
	if len(cs) == 0 {
		return nil
	}
	out := make([]dd.Control, len(cs))
	for i, c := range cs {
		out[i] = dd.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	return out
}

// swapAsCXs returns the three CX gates realizing a (controlled) SWAP.
// Controlling each factor on the SWAP's own controls is sound because all
// three factors are block-diagonal with respect to the control subspace.
func swapAsCXs(g circuit.Gate) [3]circuit.Gate {
	a, b := g.Target, g.Target2
	cx := func(ctl, tgt int) circuit.Gate {
		// Exactly sized and freshly backed: the factors must never alias
		// (or grow into) the input gate's controls slice.
		controls := make([]circuit.Control, 0, len(g.Controls)+1)
		controls = append(controls, circuit.Control{Qubit: ctl})
		controls = append(controls, g.Controls...)
		return circuit.Gate{Kind: circuit.X, Target: tgt, Target2: -1, Controls: controls}
	}
	return [3]circuit.Gate{cx(a, b), cx(b, a), cx(a, b)}
}

// GateDD builds the full-register matrix DD of a circuit gate (including
// SWAP gates, which are expanded into three CX factors).
func GateDD(p *dd.Package, g circuit.Gate) dd.MEdge {
	if g.Kind == circuit.SWAP {
		cxs := swapAsCXs(g)
		m := GateDD(p, cxs[0])
		m = p.MulMM(GateDD(p, cxs[1]), m)
		m = p.MulMM(GateDD(p, cxs[2]), m)
		return m
	}
	return p.GateDD(g.Matrix(), g.Target, ToDDControls(g.Controls))
}

// ApplyGate applies a single gate to a state DD through the direct
// gate-application kernel (dd.ApplyGateV), which walks the state without
// building the gate's matrix DD.  SWAPs expand into three CX factors.
func ApplyGate(p *dd.Package, state dd.VEdge, g circuit.Gate) dd.VEdge {
	if g.Kind == circuit.SWAP {
		for _, cx := range swapAsCXs(g) {
			state = ApplyGate(p, state, cx)
		}
		return state
	}
	return p.ApplyGateV(g.Matrix(), g.Target, ToDDControls(g.Controls), state)
}

// ApplyGateLegacy applies a single gate by building its full-register
// matrix DD and running the generic matrix-vector product — the reference
// path the kernel is checked against (see core.Options.DisableApplyKernel).
func ApplyGateLegacy(p *dd.Package, state dd.VEdge, g circuit.Gate) dd.VEdge {
	if g.Kind == circuit.SWAP {
		for _, cx := range swapAsCXs(g) {
			state = ApplyGateLegacy(p, state, cx)
		}
		return state
	}
	return p.MulMV(p.GateDD(g.Matrix(), g.Target, ToDDControls(g.Controls)), state)
}

// Simulator runs circuits on a DD package, garbage-collecting as needed.
type Simulator struct {
	P *dd.Package

	// Legacy switches gate application from the direct kernel
	// (dd.ApplyGateV) back to the full-matrix GateDD+MulMV reference path.
	// Results are identical either way; only the cost differs.
	Legacy bool

	// GatesApplied counts the elementary gate applications performed, for
	// the experiment reports.
	GatesApplied int64

	// prep caches each circuit's kernel-prepared program (one entry per
	// circuit gate; SWAPs contribute their three CX factors) so the
	// r-stimuli loop translates every gate exactly once.  Keyed by circuit
	// pointer: callers must not mutate a circuit's gates between runs on
	// the same simulator.
	prep map[*circuit.Circuit][][]*dd.PreparedGate

	// bound caches the package-local binding of each shared Program this
	// simulator has run, so a worker binds a program once and then pays only
	// the kernel recursion per application.
	bound map[*Program][][]*dd.PreparedGate
}

// Program is an immutable, package-independent compilation of a circuit:
// every circuit gate lowered to its dd.GateSpec form (SWAPs expanded into
// their three CX factors), paying the per-gate matrix construction —
// including the trigonometry of parameterized gates — exactly once.  A
// Program is read-only after Prepare returns and may be shared freely
// across goroutines; parallel stimulus workers each bind it to their own
// private package (see Simulator.bind) and drive the one shared copy.
type Program struct {
	n     int
	steps [][]dd.GateSpec // one entry per circuit gate
}

// Prepare compiles a circuit into a shareable Program.  The circuit's gates
// must not be mutated afterwards (the specs alias nothing from the circuit,
// but the compilation reflects the gates at call time).
func Prepare(c *circuit.Circuit) *Program {
	spec := func(g circuit.Gate) dd.GateSpec {
		return dd.GateSpec{U: g.Matrix(), Target: g.Target, Controls: ToDDControls(g.Controls)}
	}
	steps := make([][]dd.GateSpec, len(c.Gates))
	for i, g := range c.Gates {
		if g.Kind == circuit.SWAP {
			cxs := swapAsCXs(g)
			steps[i] = []dd.GateSpec{spec(cxs[0]), spec(cxs[1]), spec(cxs[2])}
		} else {
			steps[i] = []dd.GateSpec{spec(g)}
		}
	}
	return &Program{n: c.N, steps: steps}
}

// Qubits returns the register size the program was compiled for.
func (pr *Program) Qubits() int { return pr.n }

// Gates returns the number of circuit gates in the program (SWAP factors
// count as their originating gate).
func (pr *Program) Gates() int { return len(pr.steps) }

// bind returns (binding and caching on first use) the package-local
// prepared form of a shared program.  Binding only reads the program.
func (s *Simulator) bind(prog *Program) [][]*dd.PreparedGate {
	if pg, ok := s.bound[prog]; ok {
		return pg
	}
	pg := make([][]*dd.PreparedGate, len(prog.steps))
	for i, specs := range prog.steps {
		fs := make([]*dd.PreparedGate, len(specs))
		for j, sp := range specs {
			fs[j] = s.P.PrepareSpec(sp)
		}
		pg[i] = fs
	}
	if s.bound == nil {
		s.bound = make(map[*Program][][]*dd.PreparedGate, 2)
	}
	s.bound[prog] = pg
	return pg
}

// RunProgram simulates the program on basis state |input> and returns the
// final state DD (cf. Run).
func (s *Simulator) RunProgram(prog *Program, input uint64) dd.VEdge {
	if prog.n != s.P.Qubits() {
		panic(fmt.Sprintf("sim: program on %d qubits, package on %d", prog.n, s.P.Qubits()))
	}
	return s.RunProgramWithPins(prog, s.P.BasisState(input), nil, nil)
}

// RunProgramWithPins simulates a shared program starting from an arbitrary
// state DD, keeping the given states (pins) and matrices (mpins) alive
// across garbage collections.  It applies exactly the same prepared-gate
// sequence as RunFromWithPins would for the originating circuit, so results
// are bit-identical.
func (s *Simulator) RunProgramWithPins(prog *Program, state dd.VEdge, pins []dd.VEdge, mpins []dd.MEdge) dd.VEdge {
	roots := make([]dd.VEdge, 0, len(pins)+1)
	for _, steps := range s.bind(prog) {
		for _, pg := range steps {
			state = s.P.ApplyPrepared(pg, state)
		}
		s.GatesApplied++
		faultStep(s.GatesApplied)
		roots = append(roots[:0], pins...)
		roots = append(roots, state)
		s.P.MaybeGC(roots, mpins)
	}
	return state
}

// apply dispatches one gate application according to the Legacy switch.
func (s *Simulator) apply(state dd.VEdge, g circuit.Gate) dd.VEdge {
	if s.Legacy {
		return ApplyGateLegacy(s.P, state, g)
	}
	return ApplyGate(s.P, state, g)
}

// prepared returns (building and caching on first use) the kernel-prepared
// program of a circuit.
func (s *Simulator) prepared(c *circuit.Circuit) [][]*dd.PreparedGate {
	if pg, ok := s.prep[c]; ok {
		return pg
	}
	prepare := func(g circuit.Gate) *dd.PreparedGate {
		return s.P.PrepareGate(g.Matrix(), g.Target, ToDDControls(g.Controls))
	}
	pg := make([][]*dd.PreparedGate, len(c.Gates))
	for i, g := range c.Gates {
		if g.Kind == circuit.SWAP {
			cxs := swapAsCXs(g)
			pg[i] = []*dd.PreparedGate{prepare(cxs[0]), prepare(cxs[1]), prepare(cxs[2])}
		} else {
			pg[i] = []*dd.PreparedGate{prepare(g)}
		}
	}
	if s.prep == nil {
		s.prep = make(map[*circuit.Circuit][][]*dd.PreparedGate, 2)
	}
	s.prep[c] = pg
	return pg
}

// New creates a simulator on a fresh default package for n qubits.
func New(n int) *Simulator { return &Simulator{P: dd.NewDefault(n)} }

// NewOn creates a simulator sharing an existing package (so states from
// different circuits can be compared by root edge or fidelity).
func NewOn(p *dd.Package) *Simulator { return &Simulator{P: p} }

// Run simulates the circuit on basis state |input> and returns the final
// state DD (the input-th column of the circuit's system matrix).
func (s *Simulator) Run(c *circuit.Circuit, input uint64) dd.VEdge {
	if c.N != s.P.Qubits() {
		panic(fmt.Sprintf("sim: circuit on %d qubits, package on %d", c.N, s.P.Qubits()))
	}
	return s.RunFrom(c, s.P.BasisState(input))
}

// RunFrom simulates the circuit starting from an arbitrary state DD.
func (s *Simulator) RunFrom(c *circuit.Circuit, state dd.VEdge) dd.VEdge {
	if s.Legacy {
		for _, g := range c.Gates {
			state = ApplyGateLegacy(s.P, state, g)
			s.GatesApplied++
			faultStep(s.GatesApplied)
			s.P.MaybeGC([]dd.VEdge{state}, nil)
		}
		return state
	}
	for _, steps := range s.prepared(c) {
		for _, pg := range steps {
			state = s.P.ApplyPrepared(pg, state)
		}
		s.GatesApplied++
		faultStep(s.GatesApplied)
		s.P.MaybeGC([]dd.VEdge{state}, nil)
	}
	return state
}

// RunFromWithPins simulates like RunFrom but additionally keeps the given
// states (pins) and matrices (mpins) alive across garbage collections (used
// when comparing runs of two circuits on one package, where the comparison
// may also need an output-permutation matrix).
func (s *Simulator) RunFromWithPins(c *circuit.Circuit, state dd.VEdge, pins []dd.VEdge, mpins []dd.MEdge) dd.VEdge {
	roots := make([]dd.VEdge, 0, len(pins)+1)
	if s.Legacy {
		for _, g := range c.Gates {
			state = ApplyGateLegacy(s.P, state, g)
			s.GatesApplied++
			faultStep(s.GatesApplied)
			roots = append(roots[:0], pins...)
			roots = append(roots, state)
			s.P.MaybeGC(roots, mpins)
		}
		return state
	}
	for _, steps := range s.prepared(c) {
		for _, pg := range steps {
			state = s.P.ApplyPrepared(pg, state)
		}
		s.GatesApplied++
		faultStep(s.GatesApplied)
		roots = append(roots[:0], pins...)
		roots = append(roots, state)
		s.P.MaybeGC(roots, mpins)
	}
	return state
}

// faultHook, when installed, observes every circuit-gate step of every
// simulator in the process (internal/faultinject's slow-prover fault).  A
// pointer-to-func in an atomic.Pointer keeps the production cost at one
// atomic load per gate.
var faultHook atomic.Pointer[func(gatesApplied int64)]

// SetFaultHook installs (or with nil removes) a process-wide per-gate hook
// called with the simulator's running gate count after each circuit gate.
// It is a fault-injection seam for chaos tests; production code never sets
// it.  Install it before simulation goroutines start.
func SetFaultHook(f func(gatesApplied int64)) {
	if f == nil {
		faultHook.Store(nil)
		return
	}
	faultHook.Store(&f)
}

func faultStep(gatesApplied int64) {
	if h := faultHook.Load(); h != nil {
		(*h)(gatesApplied)
	}
}

// BuildUnitary constructs the complete system matrix DD of a circuit by
// matrix-matrix multiplication — the expensive "full functional coverage"
// the paper's flow avoids whenever simulation suffices.
func BuildUnitary(p *dd.Package, c *circuit.Circuit) dd.MEdge {
	if c.N != p.Qubits() {
		panic(fmt.Sprintf("sim: circuit on %d qubits, package on %d", c.N, p.Qubits()))
	}
	u := p.Identity()
	for _, g := range c.Gates {
		u = p.MulMM(GateDD(p, g), u)
		p.MaybeGC(nil, []dd.MEdge{u})
	}
	return u
}

// PermutationDD builds the matrix DD of the qubit permutation perm, where
// output wire perm[q] carries what input wire q carried, i.e.
// P|x> = |y> with y_{perm[q]} = x_q.
func PermutationDD(p *dd.Package, perm []int) dd.MEdge {
	n := p.Qubits()
	if len(perm) != n {
		panic(fmt.Sprintf("sim: permutation on %d wires, package on %d", len(perm), n))
	}
	cur := make([]int, n) // cur[q]: wire currently holding logical q
	seen := make([]bool, n)
	for i, t := range perm {
		if t < 0 || t >= n || seen[t] {
			panic(fmt.Sprintf("sim: invalid permutation %v", perm))
		}
		seen[t] = true
		cur[i] = i
	}
	pos := make([]int, n) // pos[w]: logical qubit on wire w
	for q := range pos {
		pos[q] = q
	}
	u := p.Identity()
	xMat := [2][2]complex128{{0, 1}, {1, 0}}
	swapDD := func(a, b int) dd.MEdge {
		m := p.GateDD(xMat, b, []dd.Control{{Qubit: a}})
		m2 := p.GateDD(xMat, a, []dd.Control{{Qubit: b}})
		return p.MulMM(m, p.MulMM(m2, m))
	}
	for q := 0; q < n; q++ {
		want := perm[q]
		have := cur[q]
		if have == want {
			continue
		}
		u = p.MulMM(swapDD(have, want), u)
		other := pos[want] // logical qubit currently on the desired wire
		cur[q], cur[other] = want, have
		pos[want], pos[have] = q, other
	}
	return u
}

// SampleCounts draws shots samples from the final state of the circuit run
// on |input>.
func (s *Simulator) SampleCounts(c *circuit.Circuit, input uint64, shots int, rng *rand.Rand) map[uint64]int {
	st := s.Run(c, input)
	counts := make(map[uint64]int)
	for i := 0; i < shots; i++ {
		counts[s.P.Sample(st, rng)]++
	}
	return counts
}

// ExpectationZ returns <psi|Z_q|psi> for a state DD — the observable used by
// the chemistry-style workloads.  Z_q is diagonal, so the value is the
// probability of qubit q being 0 minus the probability of it being 1.
func (s *Simulator) ExpectationZ(state dd.VEdge, q int) float64 {
	zGate := circuit.Gate{Kind: circuit.Z, Target: q, Target2: -1}
	return real(s.P.InnerProduct(state, s.apply(state, zGate)))
}
