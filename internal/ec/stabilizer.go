package ec

import (
	"fmt"
	"math"
	"time"

	"qcec/internal/circuit"
	"qcec/internal/cn"
	"qcec/internal/dd"
	"qcec/internal/resource"
	"qcec/internal/sim"
	"qcec/internal/stab"
)

// This file is the StrategyStabilizer backend: the polynomial-time Clifford
// checker (internal/stab) dressed in the complete routine's Result shape,
// resource contracts and pool/watchdog discipline, so the portfolio, the
// CLI and the server route to it exactly like any DD strategy.

// NotCliffordError reports why the stabilizer strategy declined a pair: the
// gate-set analyzer found a gate outside the Clifford set in one of the
// circuits.  It is the whole cost a non-Clifford pair pays on this path —
// one early-exit scan, no DD package, no tableau.
type NotCliffordError struct {
	Circuit   string // "G" or "G'"
	GateIndex int
	Gate      string
}

// Error formats the routing refusal.
func (e *NotCliffordError) Error() string {
	return fmt.Sprintf("stabilizer: %s gate %d (%s) is not Clifford", e.Circuit, e.GateIndex, e.Gate)
}

// checkStabilizer runs the tableau fast path.  tol is the already-defaulted
// DD weight tolerance; the analyzer's angle snap and the phase anchor's
// agreement bound both derive from it.
func checkStabilizer(g1, g2 *circuit.Circuit, opts Options, tol float64) Result {
	start := time.Now()
	res := Result{Strategy: StrategyStabilizer}
	finish := func() Result {
		res.Runtime = time.Since(start)
		return res
	}

	// One-pass gate-set scan; a non-Clifford gate ends the check here.
	angleTol := circuit.CliffordAngleTolerance(tol)
	ops1, bad, ok := circuit.LowerClifford(g1, angleTol)
	if !ok {
		res.Verdict = TimedOut
		res.Cause = CauseError
		res.Err = &NotCliffordError{Circuit: "G", GateIndex: bad, Gate: g1.Gates[bad].String()}
		res.Reason = res.Err.Error()
		return finish()
	}
	ops2, bad, ok := circuit.LowerClifford(g2, angleTol)
	if !ok {
		res.Verdict = TimedOut
		res.Cause = CauseError
		res.Err = &NotCliffordError{Circuit: "G'", GateIndex: bad, Gate: g2.Gates[bad].String()}
		res.Reason = res.Err.Error()
		return finish()
	}

	// Same watchdog discipline as the DD strategies: honor one already on
	// the context, otherwise start our own when limits are configured (the
	// tableau itself is a few kilobytes, but the strict-phase anchor below
	// builds state DDs).
	w := resource.FromContext(opts.Context)
	ownWatchdog := false
	if w == nil && (opts.MemSoftLimit > 0 || opts.MemHardLimit > 0) {
		w, opts.Context = resource.Start(opts.Context, resource.Config{
			SoftLimit: opts.MemSoftLimit,
			HardLimit: opts.MemHardLimit,
		})
		ownWatchdog = true
	}
	defer func() {
		if ownWatchdog {
			w.Stop()
			st := w.Stats()
			res.Mem = &st
		}
	}()

	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	sres := stab.Check(opts.Context, deadline, g1.N, ops1, ops2, opts.OutputPerm)
	res.GatesApplied = sres.GatesApplied
	switch sres.Verdict {
	case stab.Aborted:
		res.Verdict = TimedOut
		if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
			res.Cause, res.Reason, res.Err = cancelCause(ctx)
		} else {
			res.Cause = CauseTimeout
			res.Reason = fmt.Sprintf("timeout %s exceeded", opts.Timeout)
		}
		return finish()
	case stab.NotEquivalent:
		res.Verdict = NotEquivalent
		res.Counterexample = sres.Counterexample
		res.Reason = fmt.Sprintf("%d of %d generators moved", sres.Mismatches, 2*g1.N)
		return finish()
	}
	// All 2n generators fixed: the circuits are equal up to a global scalar.
	if opts.UpToGlobalPhase {
		res.Verdict = EquivalentUpToGlobalPhase
		return finish()
	}
	anchorPhase(g1, g2, opts, tol, &res)
	return finish()
}

// anchorPhase resolves the residual global scalar in the strict phase
// convention: the tableau has proven U' = e^{iφ}·P·U (P the declared output
// relabeling), so a single basis-state simulation of both circuits pins φ —
// <0|P†U'|0> / <0|U|0> — with one overlap.  This is the only place the
// stabilizer strategy touches a DD package, and only on pairs already
// proven equivalent up to phase.
func anchorPhase(g1, g2 *circuit.Circuit, opts Options, tol float64, res *Result) {
	var p *dd.Package
	if opts.Pool != nil {
		p = opts.Pool.Get(g1.N, tol)
	} else {
		p = dd.New(g1.N, tol)
	}
	genuineFault := false
	defer func() {
		res.FinalNodes = p.NodeCount()
		if n := p.NodeCount(); n > res.PeakNodes {
			res.PeakNodes = n
		}
		res.DD = p.Snapshot()
		if opts.Pool != nil {
			if genuineFault {
				opts.Pool.Forget()
			} else {
				opts.Pool.Put(p)
			}
		}
	}()
	if opts.Timeout > 0 {
		p.SetDeadline(time.Now().Add(opts.Timeout))
	}
	if opts.NodeLimit > 0 {
		p.SetNodeLimit(opts.NodeLimit)
	}
	if ctx := opts.Context; ctx != nil {
		p.SetCancel(func() bool { return ctx.Err() != nil })
	}
	var removeGauge func()
	if w := resource.FromContext(opts.Context); w != nil {
		p.SetPressure(w.Epoch)
		removeGauge = w.AddGauge(p.OccupancyGauge())
	}
	if removeGauge != nil {
		defer removeGauge()
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if le, ok := r.(*dd.LimitError); ok {
			res.Verdict = TimedOut
			res.Reason = le.Error()
			switch {
			case le.Cancelled:
				if ctx := opts.Context; ctx != nil {
					res.Cause, res.Reason, res.Err = cancelCause(ctx)
				} else {
					res.Cause = CauseCancelled
				}
			case le.Deadline:
				res.Cause = CauseTimeout
			default:
				res.Cause = CauseNodeLimit
			}
			return
		}
		perr := resource.NewPanicError("ec stabilizer anchor", r)
		genuineFault = true
		res.Verdict = TimedOut
		res.Cause = CauseError
		res.Err = perr
		res.Reason = perr.Error()
	}()

	s := sim.NewOn(p)
	in := p.BasisState(0)
	u := s.RunFromWithPins(g1, in, []dd.VEdge{in}, nil)
	v := s.RunFromWithPins(g2, in, []dd.VEdge{u}, nil)
	if opts.OutputPerm != nil {
		v = p.MulMV(sim.PermutationDD(p, invertPermStab(opts.OutputPerm)), v)
	}
	overlap := p.InnerProduct(u, v)
	atol := cn.AgreementTolerance(tol)
	if math.Abs(real(overlap)-1) < atol && math.Abs(imag(overlap)) < atol {
		res.Verdict = Equivalent
		return
	}
	res.Verdict = NotEquivalent
	res.Reason = "differ by a global phase"
	ce := uint64(0)
	res.Counterexample = &ce
}

// invertPermStab mirrors core's permutation inversion for the anchor's
// un-permute step (the simulation compares P⁻¹·U'|0> against U|0>).
func invertPermStab(perm []int) []int {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}
