package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"qcec/internal/core"
	"qcec/internal/dd"
	"qcec/internal/ec"
	"qcec/internal/sim"
)

const (
	// checkLimit is the per-check limit, qcecd's default timeout.  A check
	// that fails is charged this much in every time metric.
	checkLimit = 30 * time.Second
	// flowSeed is the fixed stimulus seed of the library flow.
	flowSeed = 1
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome is one judged check.
type outcome struct {
	ms        float64 // CPU time to verdict
	wallMS    float64 // wall time to verdict
	failed    bool    // error, inconclusive, over the limit, or a witness only the inverses show
	wrong     bool    // contradicts ground truth, or its counterexample shows nothing
	verdict   core.Verdict
	decidedBy string
	peakNodes int // peak nodes of the complete routine (0 if it did not run)
	// inverseWitness marks a not-equivalent verdict whose counterexample
	// only the inverse circuits show (counted as failed).
	inverseWitness bool
}

// witnessKey identifies a counterexample reported for a distinct check.
type witnessKey struct {
	id        int
	input     uint64
	decidedBy string
}

// judge compares a report with the pair's ground truth.  It re-simulates a
// counterexample on the dense simulator, once per distinct check and
// counterexample (memo keeps the classes), so it must run outside the timed
// region.  el and cpu are the check's wall and CPU time.
func judge(p pair, rep core.Report, el, cpu time.Duration, memo map[witnessKey]witness) outcome {
	o := outcome{ms: ms(cpu), wallMS: ms(el), verdict: rep.Verdict, decidedBy: rep.DecidedBy}
	if rep.EC != nil {
		o.peakNodes = rep.EC.PeakNodes
	}
	switch {
	case rep.Err != nil || rep.Cancelled || rep.Verdict == core.ProbablyEquivalent || el > checkLimit:
		o.failed = true
	case rep.Verdict == core.NotEquivalent:
		w := witnessOK
		if rep.Counterexample != nil {
			k := witnessKey{p.id, rep.Counterexample.Input, rep.DecidedBy}
			var ok bool
			if w, ok = memo[k]; !ok {
				w = checkWitness(p.g, p.gp, p.perm, k.input, k.decidedBy)
				memo[k] = w
			}
		}
		o.wrong = p.want || w == witnessBad
		o.failed = w == witnessInverse
		o.inverseWitness = o.failed
		if o.wrong {
			fmt.Fprintf(os.Stderr, "wrong verdict: %s %v by %s, witness class %d\n",
				p.name, rep.Verdict, rep.DecidedBy, w)
		}
	default:
		o.wrong = !p.want
		if o.wrong {
			fmt.Fprintf(os.Stderr, "wrong verdict: %s %v by %s\n", p.name, rep.Verdict, rep.DecidedBy)
		}
	}
	return o
}

// checkPlain runs the default flow on one pair, as a library user would,
// and returns the report with its wall and CPU time.
func checkPlain(p pair) (core.Report, time.Duration, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), checkLimit)
	defer cancel()
	sw := startWatch()
	rep := core.Check(p.g, p.gp, core.Options{Context: ctx, Seed: flowSeed, OutputPerm: p.perm})
	el, cpu := sw.elapsed()
	return rep, el, cpu
}

// checkTraced runs the same flow one layer at a time, with a span around
// each call: sim.Prepare on both sides, the stimulus stage (core.Check with
// SkipEC) and, when the stimuli all agree, the complete routine (ec.Check
// with the options core.Check would pass).
func checkTraced(tr *tracer, id int, p pair) (core.Report, time.Duration, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), checkLimit)
	defer cancel()
	sw := startWatch()
	root := tr.begin("check", 0, id)
	s := tr.begin("sim.Prepare", root, id)
	sim.Prepare(p.g)
	sim.Prepare(p.gp)
	tr.end(s)
	s = tr.begin("core.Check{SkipEC}", root, id)
	rep := core.Check(p.g, p.gp, core.Options{Context: ctx, Seed: flowSeed, OutputPerm: p.perm, SkipEC: true})
	tr.end(s)
	if rep.Verdict == core.ProbablyEquivalent && rep.Err == nil && !rep.Cancelled {
		s = tr.begin("ec.Check", root, id)
		res := ec.Check(p.g, p.gp, ec.Options{Context: ctx, OutputPerm: p.perm})
		tr.end(s)
		rep.EC = &res
		switch res.Verdict {
		case ec.Equivalent:
			rep.Verdict = core.Equivalent
		case ec.EquivalentUpToGlobalPhase:
			rep.Verdict = core.EquivalentUpToGlobalPhase
		case ec.NotEquivalent:
			rep.Verdict = core.NotEquivalent
			if res.Counterexample != nil {
				rep.Counterexample = &core.Counterexample{Input: *res.Counterexample}
			}
		case ec.TimedOut:
			rep.Cancelled = res.Cause == ec.CauseCancelled || res.Cause == ec.CauseMemLimit
			rep.Err = res.Err
		}
		if res.Verdict != ec.TimedOut {
			rep.DecidedBy = "ec:" + res.Strategy.String()
		}
	}
	tr.end(root)
	el, cpu := sw.elapsed()
	return rep, el, cpu
}

// passCounters are the deterministic work counters of one traced pass.
type passCounters struct {
	checks        int
	sim, ec       dd.Stats
	weightsStored int // summed over the checks' tables
	numSims       int
	gatesApplied  int
	peakNodes     int
	allocBytes    uint64
	gcCycles      uint32
}

func (c *passCounters) add(rep core.Report) {
	c.checks++
	c.sim.Add(rep.DD)
	c.weightsStored += rep.DD.WeightsStored
	c.numSims += rep.NumSims
	if rep.EC != nil {
		c.ec.Add(rep.EC.DD)
		c.weightsStored += rep.EC.DD.WeightsStored
		c.gatesApplied += rep.EC.GatesApplied
		c.peakNodes = max(c.peakNodes, rep.EC.PeakNodes)
	}
}

// baseRow aggregates one base pair's checks for the per-pair rows.
type baseRow struct {
	checks    int
	verdicts  map[string]int
	decided   map[string]int
	peakNodes int
	gpGates   int
}

// libRun is the state of one library-workload run.
type libRun struct {
	w      *libWorkload
	rows   []baseRow
	plain  [][]float64 // untraced times per distinct check, in ms at the reference speed
	wall   [][]float64 // untraced wall times per distinct check
	traced [][]float64 // traced times per distinct check, likewise
	outcomes
	witnesses map[witnessKey]witness
	checks    int // checks run, traced or not
	calib     *calibrator
	// counters are the work counters of the first traced pass.
	counters *passCounters
	tr       *tracer
}

// runLib measures a library workload for the given duration.  Untraced, it
// runs whole passes until the time is up.  Traced, it alternates untraced
// and traced passes (at least one of each) and records the work counters
// of the first traced pass.  Every check starts on a freshly collected heap,
// as the check of a fresh qcec process does, so that no check pays for the
// garbage of the one before it.
func runLib(w *libWorkload, seconds float64, tr *tracer) (*libRun, error) {
	r := &libRun{w: w, tr: tr,
		rows:      make([]baseRow, len(w.bases)),
		plain:     make([][]float64, len(w.pairs)),
		wall:      make([][]float64, len(w.pairs)),
		traced:    make([][]float64, len(w.pairs)),
		outcomes:  newOutcomes(len(w.pairs)),
		witnesses: map[witnessKey]witness{},
	}
	for i := range r.rows {
		r.rows[i] = baseRow{verdicts: map[string]int{}, decided: map[string]int{}}
	}
	var err error
	if r.calib, err = newCalibrator(); err != nil {
		return nil, err
	}
	minPasses := 1
	if tr != nil {
		minPasses = 2
	}
	clock := newPassClock(seconds, minPasses)
	for k := 0; clock.another(k); k++ {
		traced := tr != nil && k%2 == 1
		rounds := len(r.calib.samples)
		var pc *passCounters
		var before runtime.MemStats
		if traced && r.counters == nil {
			pc = &passCounters{}
			runtime.ReadMemStats(&before)
		}
		for _, p := range w.pass(k) {
			p, err := materialize(p)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			r.calib.round()
			var rep core.Report
			var el, cpu time.Duration
			r.checks++
			if traced {
				rep, el, cpu = checkTraced(tr, r.checks, p)
			} else {
				rep, el, cpu = checkPlain(p)
			}
			if pc != nil {
				pc.add(rep)
			}
			o := judge(p, rep, el, cpu, r.witnesses)
			r.record(p, o, traced)
		}
		// Scale the pass's CPU times by the pass's own calibration.
		times := r.plain
		if traced {
			times = r.traced
		}
		f := r.calib.factorSince(rounds)
		for _, s := range times {
			s[len(s)-1] *= f
		}
		if pc != nil {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			pc.allocBytes = after.TotalAlloc - before.TotalAlloc
			pc.gcCycles = after.NumGC - before.NumGC
			r.counters = pc
		}
	}
	return r, nil
}

func (r *libRun) record(p pair, o outcome, traced bool) {
	r.note(p.id, o.failed, o.wrong)
	if traced {
		r.traced[p.id] = append(r.traced[p.id], o.ms)
	} else {
		r.plain[p.id] = append(r.plain[p.id], o.ms)
		r.wall[p.id] = append(r.wall[p.id], o.wallMS)
	}
	row := &r.rows[p.base]
	row.checks++
	v := o.verdict.String()
	switch {
	case o.inverseWitness:
		v = "failed (inverse witness)"
	case o.failed:
		v = "failed"
	}
	row.verdicts[v]++
	row.decided[o.decidedBy]++
	row.peakNodes = max(row.peakNodes, o.peakNodes)
	row.gpGates = p.gp.NumGates()
}

// baseTimes returns, for each base, the median of its distinct checks'
// times (see checkTimes): the base's own time for equiv-flow, the median
// mutant's for neq-flow; 0 for a base without samples.
func (r *libRun) baseTimes(times []float64) []float64 {
	byBase := make([][]float64, len(r.w.bases))
	for _, p := range r.w.pairs {
		if t := times[p.id]; t > 0 {
			byBase[p.base] = append(byBase[p.base], t)
		}
	}
	out := make([]float64, len(byBase))
	for i, ts := range byBase {
		out[i] = median(ts)
	}
	return out
}

// endToEnd fills the end-to-end metrics from the untraced checks.
func (r *libRun) endToEnd(m *metrics) {
	times := r.checkTimes(r.plain)
	bases := nonzero(r.baseTimes(times))
	distinct := nonzero(times)
	var n int
	for _, s := range r.plain {
		n += len(s)
	}
	attempted, _, _, decided := r.counts()
	m.set("verdict_s_total", sum(bases)/1000, "s")
	m.set("verdict_ms_geomean", geomean(bases), "ms")
	m.set("verdict_ms_p50", median(distinct), "ms")
	m.set("verdict_ms_p95", quantile(distinct, 0.95), "ms")
	// One check of every base at its time, back to back.
	m.set("checks_per_s", ratio(float64(len(bases)), sum(bases)/1000), "1/s")
	m.set("decided_share", ratio(float64(decided), float64(attempted)), "ratio")
	m.samples = fmt.Sprintf("verdict_ms_p50 and verdict_ms_p95 over %d distinct checks (%d above p95); "+
		"geomean and total over %d per-base times; %d untraced checks in %d passes; %s",
		len(distinct), int(float64(len(distinct))*0.05), len(bases), n, n/max(1, len(distinct)), r.calib)
}

// perLayer fills the per-layer metrics of a traced run.
func (r *libRun) perLayer(m *metrics) {
	self, count := r.tr.selfTimes()
	checks := float64(count["check"])
	m.set("sim.prepare_ms", ratio(ms(self["sim.Prepare"]), checks), "ms")
	m.set("core.sim_ms", ratio(ms(self["core.Check{SkipEC}"]), checks), "ms")
	m.set("ec.check_ms", ratio(ms(self["ec.Check"]), checks), "ms")
	c := r.counters
	m.set("core.num_sims", float64(c.numSims), "count")
	m.set("ec.gates_applied", float64(c.gatesApplied), "count")
	m.set("ec.peak_nodes", float64(c.peakNodes), "count")
	setDD(m, "dd.sim.", c.sim)
	setDD(m, "dd.ec.", c.ec)
	lookups := c.sim.WeightLookups + c.ec.WeightLookups
	m.set("cn.weight_lookups", float64(lookups), "count")
	m.set("cn.weight_hit_ratio", ratio(float64(c.sim.WeightHits+c.ec.WeightHits), float64(lookups)), "ratio")
	m.set("cn.weights_stored", float64(c.weightsStored), "count")
	m.set("runtime.alloc_mib_per_check", float64(c.allocBytes)/(1<<20)/float64(c.checks), "MiB")
	m.set("runtime.gc_cycles", float64(c.gcCycles), "count")
	m.set("trace.overhead", ratio(geomean(nonzero(r.baseTimes(r.checkTimes(r.traced)))),
		geomean(nonzero(r.baseTimes(r.checkTimes(r.plain))))), "ratio")
	// The library flow parses no QASM and has no server.
	for _, k := range []string{"qasm.parse_ms", "fingerprint.pair_ms", "server.queue_ms", "server.overhead_ms", "server.hit_ms"} {
		m.set(k, 0, "ms")
	}
	m.set("qasm.parse_mb_per_s", 0, "MB/s")
	m.set("server.cache_hit_ratio", 0, "ratio")
	m.set("server.pool_reuse_ratio", 0, "ratio")
	setClassGeomeans(m, nil)
}

// setDD records one DD-package counter set under prefix.
func setDD(m *metrics, prefix string, s dd.Stats) {
	m.set(prefix+"nodes_created", float64(s.NodesCreated), "count")
	m.set(prefix+"unique_hit_ratio", ratio(float64(s.UniqueHits), float64(s.UniqueLookups)), "ratio")
	m.set(prefix+"compute_hit_ratio", ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses)), "ratio")
	m.set(prefix+"gc_runs", float64(s.GCRuns), "count")
	m.set(prefix+"gc_reclaimed", float64(s.GCReclaimed), "count")
	m.set(prefix+"apply_calls", float64(s.ApplyCalls), "count")
	m.set(prefix+"apply_hit_ratio", ratio(float64(s.ApplyHits), float64(s.ApplyHits+s.ApplyMisses)), "ratio")
	m.set(prefix+"gate_hit_ratio", ratio(float64(s.GateHits), float64(s.GateHits+s.GateMisses)), "ratio")
}

// printRows writes one row per base pair: ms is the base's time in the
// end-to-end metrics, wall_ms the same figure in plain wall time.
func (r *libRun) printRows(w io.Writer) {
	fmt.Fprintf(w, "# %-22s %3s %6s %7s  %-30s %-22s %10s %10s %6s %9s\n",
		"pair", "n", "|G|", "|G'|", "verdicts", "decided_by", "ms", "wall_ms", "checks", "peak")
	times := r.baseTimes(r.checkTimes(r.plain))
	walls := r.baseTimes(r.checkTimes(r.wall))
	for i, b := range r.w.bases {
		row := r.rows[i]
		gp := fmt.Sprint(row.gpGates)
		if r.w.mutate {
			gp = "~" + gp // mutants differ by a gate or so from the base
		}
		fmt.Fprintf(w, "# %-22s %3d %6d %7s  %-30s %-22s %10.2f %10.2f %6d %9d\n", b.name, b.g.N,
			b.g.NumGates(), gp, tally(row.verdicts), tally(row.decided), times[i], walls[i], row.checks, row.peakNodes)
	}
}

// tally renders a count map as "a x3, b x1" in a stable order.
func tally(c map[string]int) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		if k == "" {
			k = "-"
		}
		out += fmt.Sprintf("%s x%d", k, c[k])
	}
	return out
}
