// Command e2ebench is the repository's end-to-end benchmark: time to a
// verdict for the simulation-first equivalence-checking flow, through the
// library (core.Check) and through the qcecd daemon over loopback HTTP.
//
//	e2ebench --workload equiv-flow|neq-flow|qcecd-ci --seed N --seconds S --trace 0|1
//
// It generates its inputs from the seed, checks every verdict against
// ground truth (re-simulating every counterexample on the dense simulator),
// prints one row per pair and, as the last line of standard output, a JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1).  NOTES.md describes the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRuns is how often a run repeats its set-up; setup_s is the median of
// their CPU times, at the reference speed like every other time.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's named metrics and the sample counts behind its
// percentiles.
type metrics struct {
	vals    map[string]metric
	samples string
}

func (m *metrics) set(name string, v float64, unit string) {
	m.vals[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "equiv-flow, neq-flow or qcecd-ci")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans and CPU profile")
	flag.Parse()
	// The library flow checks one pair at a time, and qcecd gets one load
	// client.  On one P, the process CPU time of a check is the check's own
	// work and its share of the garbage collector; with more, idle Ps run
	// idle-priority GC mark workers, whose CPU time depends on how idle the
	// machine happens to be.  The daemon sizes its defaults (workers, DD
	// package pool) from this.
	runtime.GOMAXPROCS(1)
	if *trace == 1 {
		start := time.Now()
		workClock = func() time.Duration { return time.Since(start) }
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "e2ebench: a verdict contradicts ground truth or a counterexample does not reproduce")
		os.Exit(1)
	}
}

// run sets the workload up setupRuns times, measures it and returns the
// result.
func run(workload string, seed int64, seconds float64, traced bool, traceDir string) (*result, error) {
	m := &metrics{vals: map[string]metric{}}
	var tr *tracer
	var prof *cpuProfile
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", workload, seed))
	res := &result{}
	factor := 1.0 // the run's calibration factor
	var setups []float64
	switch workload {
	case "equiv-flow", "neq-flow":
		var w *libWorkload
		for i := 0; i < setupRuns; i++ {
			t0 := cpuNow()
			if i == 0 {
				t0 = 0 // the first set-up includes the process start
			}
			var err error
			if w, err = buildLibWorkload(workload, seed); err != nil {
				return nil, err
			}
			checkPlain(w.bases[0]) // warm-up
			setups = append(setups, (cpuNow() - t0).Seconds())
		}
		if traced {
			var err error
			tr = newTracer()
			if prof, err = startCPUProfile(base + ".cpu.pprof"); err != nil {
				return nil, err
			}
		}
		r, err := runLib(w, seconds, tr)
		if err != nil {
			return nil, err
		}
		r.printRows(os.Stdout)
		factor = r.calib.factor()
		if traced {
			r.perLayer(m)
		} else {
			r.endToEnd(m)
			setHeap(m)
		}
		var wrong int
		res.Attempted, res.Failed, wrong, _ = r.counts()
		res.Correct = wrong == 0
	case "qcecd-ci":
		var stream []request
		var d *daemon
		for i := 0; i < setupRuns; i++ {
			t0 := cpuNow()
			if i == 0 {
				t0 = 0 // the first set-up includes the process start
			}
			if d != nil {
				d.stop()
			}
			var err error
			if stream, err = buildStream(seed, streamLen); err != nil {
				return nil, err
			}
			if d, err = startDaemon(); err != nil {
				return nil, err
			}
			setups = append(setups, (cpuNow() - t0).Seconds())
		}
		var r *qcecdRun
		var err error
		if traced {
			d.stop()
			tr = newTracer()
			if prof, err = startCPUProfile(base + ".cpu.pprof"); err != nil {
				return nil, err
			}
			r, err = traceQcecd(stream, seconds, tr, m)
		} else {
			r, err = runQcecd(d, &stream, seconds, m)
		}
		if err != nil {
			return nil, err
		}
		r.printRows(os.Stdout)
		factor = r.factor
		var wrong int
		res.Attempted, res.Failed, wrong, _ = r.counts()
		res.Correct = wrong == 0
	default:
		return nil, fmt.Errorf("unknown workload %q (want equiv-flow, neq-flow or qcecd-ci)", workload)
	}
	if traced {
		cn, dd, gc, err := prof.shares()
		if err != nil {
			return nil, err
		}
		m.set("cpu_share.cn", cn, "ratio")
		m.set("cpu_share.dd", dd, "ratio")
		m.set("cpu_share.gc", gc, "ratio")
		m.set("runtime.peak_rss_mib", peakRSSMiB(), "MiB")
		if err := tr.write(base + ".spans.jsonl"); err != nil {
			return nil, err
		}
	} else {
		m.set("setup_s", median(setups)*factor, "s")
		fmt.Printf("# %s; setup_s is the median of %d set-ups, %.4g s of plain CPU time\n",
			m.samples, setupRuns, median(setups))
	}
	res.Metrics = m.vals
	return res, nil
}

// setHeap records the live heap after a forced collection.
func setHeap(m *metrics) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("heap_live_mib", float64(ms.HeapAlloc)/(1<<20), "MiB")
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
