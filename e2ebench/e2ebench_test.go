package main

import (
	"reflect"
	"strings"
	"testing"

	"qcec/internal/circuit"
)

// tracedCounters runs one untraced and one traced pass of a library
// workload and returns the traced pass's deterministic work counters.
func tracedCounters(t *testing.T, workload string, seed int64) map[string]float64 {
	t.Helper()
	w, err := buildLibWorkload(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runLib(w, 0, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, wrong, _ := r.counts(); wrong != 0 {
		t.Fatalf("%s: %d wrong verdicts", workload, wrong)
	}
	m := &metrics{vals: map[string]metric{}}
	r.perLayer(m)
	out := map[string]float64{}
	for k, v := range m.vals {
		if strings.HasPrefix(k, "dd.") || strings.HasPrefix(k, "cn.") || k == "ec.peak_nodes" || k == "core.num_sims" {
			out[k] = v.Value
		}
	}
	return out
}

// TestTracedCountersRepeat requires the work counters of a traced pass to
// repeat exactly at one seed.  It fails while internal/dd's garbage
// collector sweeps its unique tables in Go map order: freed node slots are
// then reused in a random order, and the compute and weight tables see
// different collisions after the first collection (checks that never
// collect repeat exactly).
func TestTracedCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two passes of each library workload twice")
	}
	for _, name := range []string{"equiv-flow", "neq-flow"} {
		a := tracedCounters(t, name, 7)
		b := tracedCounters(t, name, 7)
		if a["dd.ec.nodes_created"] == 0 && name == "equiv-flow" {
			t.Fatalf("%s: no complete-routine counters recorded", name)
		}
		if !reflect.DeepEqual(a, b) {
			for k := range a {
				if a[k] != b[k] {
					t.Errorf("%s: %s differs between runs at one seed: %v vs %v", name, k, a[k], b[k])
				}
			}
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	w1, err := buildLibWorkload("neq-flow", 1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := buildLibWorkload("neq-flow", 2)
	if err != nil {
		t.Fatal(err)
	}
	w1again, err := buildLibWorkload("neq-flow", 1)
	if err != nil {
		t.Fatal(err)
	}
	p1, p1again, p2 := w1.pass(0), w1again.pass(0), w2.pass(0)
	gates := func(ps []pair) map[int]string {
		out := map[int]string{}
		for _, p := range ps {
			m, err := materialize(p)
			if err != nil {
				t.Fatal(err)
			}
			out[p.id] = m.gp.String()
		}
		return out
	}
	if !reflect.DeepEqual(gates(p1), gates(p1again)) {
		t.Error("neq-flow: one seed gave two different mutant sets")
	}
	if reflect.DeepEqual(gates(p1), gates(p2)) {
		t.Error("neq-flow: seeds 1 and 2 gave the same mutants")
	}

	s1, err := buildStream(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	s1again, _ := buildStream(1, 50)
	s2, _ := buildStream(2, 50)
	if !reflect.DeepEqual(s1, s1again) {
		t.Error("qcecd-ci: one seed gave two different streams")
	}
	if reflect.DeepEqual(s1, s2) {
		t.Error("qcecd-ci: seeds 1 and 2 gave the same stream")
	}
}

func TestQcecdStreamVerdicts(t *testing.T) {
	stream, err := buildStream(3, 80)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	answers, wall := d.drive(stream, newTracer(), nil)
	r := newQcecdRun(stream)
	r.judge(stream, answers, wall, 1)
	if attempted, failed, wrong, _ := r.counts(); attempted != len(stream) || failed != 0 || wrong != 0 {
		t.Fatalf("attempted %d of %d, failed %d, wrong %d", attempted, len(stream), failed, wrong)
	}
}

// TestWitnessInverseOnlyFromEC checks the witness classes on G = X and
// G' = X·Z: input |0> gives |1> on both, while the inverses give |1> and
// -|1>.  Only a counterexample from the complete routine may show the
// inverses alone; from any other stage it does not reproduce.
func TestWitnessInverseOnlyFromEC(t *testing.T) {
	g := circuit.New(1, "x").X(0)
	gp := circuit.New(1, "xz").Z(0).X(0)
	for _, tc := range []struct {
		input     uint64
		decidedBy string
		want      witness
	}{
		{1, "sim", witnessOK},
		{0, "ec:proportional", witnessInverse},
		{0, "sim", witnessBad},
		{0, "", witnessBad},
	} {
		if got := checkWitness(g, gp, nil, tc.input, tc.decidedBy); got != tc.want {
			t.Errorf("input %d decided by %q: witness class %d, want %d", tc.input, tc.decidedBy, got, tc.want)
		}
	}
}
