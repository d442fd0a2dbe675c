package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcec/internal/bench"
	"qcec/internal/circuit"
	"qcec/internal/dd"
	"qcec/internal/decompose"
	"qcec/internal/errinject"
	"qcec/internal/fingerprint"
	"qcec/internal/harness"
	"qcec/internal/mapping"
	"qcec/internal/qasm"
	"qcec/internal/server"
	"qcec/internal/sim"
)

const (
	// clients is the number of closed-loop load clients.  With one, no two
	// requests overlap, so the process CPU time spent during a request is
	// that request's cost.
	clients = 1
	// streamLen is the number of requests in the stream.  A run sends the
	// whole stream to a fresh daemon in every pass.
	streamLen = 1000
	// calibEvery is how many requests the client sends between two
	// calibration rounds.
	calibEvery = 10
	// Shares of the stream: repeats of an earlier question (cache hits),
	// fresh compiled pairs (complete routine), fresh mutants (simulation),
	// and random Clifford pairs.
	repeatShare   = 0.40
	compiledShare = 0.20
	mutantShare   = 0.20
	// repeatWindow bounds how far back a repeat reaches, well inside the
	// verdict cache; repeatGap keeps it away from questions still in flight.
	repeatWindow = 256
	repeatGap    = 4
)

// request is one CI job of the qcecd-ci stream.
type request struct {
	class string // repeat, compiled, mutant or clifford
	g, gp string // OpenQASM 2.0 sources
	opts  server.CheckOptions
	want  bool // ground truth: the pair is equivalent
}

// buildStream generates the seeded request stream.  The class counts are
// fixed shares of n, and each class cycles through its source families,
// sizes, architectures and options, so seeds differ in the circuits and
// their order, not in the mix.
func buildStream(seed int64, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]string, n)
	for i := range kinds {
		switch f := float64(i) / float64(n); {
		case f < repeatShare:
			kinds[i] = "repeat"
		case f < repeatShare+compiledShare:
			kinds[i] = "compiled"
		case f < repeatShare+compiledShare+mutantShare:
			kinds[i] = "mutant"
		default:
			kinds[i] = "clifford"
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// A repeat needs an earlier question at least repeatGap back.
	for i, j := 0, repeatGap+1; i <= repeatGap && i < n; i++ {
		for ; kinds[i] == "repeat" && j < n; j++ {
			if kinds[j] != "repeat" {
				kinds[i], kinds[j] = kinds[j], kinds[i]
			}
		}
	}
	out := make([]request, 0, n)
	drawn := map[string]int{} // fresh requests per class so far
	for i, kind := range kinds {
		var req request
		var err error
		switch j := drawn[kind]; kind {
		case "repeat":
			lo := max(0, i-repeatWindow)
			req = out[lo+rng.Intn(i-repeatGap-lo)]
			req.class = "repeat"
		case "compiled":
			req, err = compiledRequest(rng, j, false)
		case "mutant":
			req, err = compiledRequest(rng, j, true)
		default:
			req, err = cliffordRequest(rng, j)
		}
		if err != nil {
			return nil, err
		}
		drawn[kind]++
		out = append(out, req)
	}
	return out, nil
}

// compiledRequest draws the j-th fresh source circuit of its class,
// compiles it onto a linear or ring architecture and serialises both sides
// at CX level; with mutate, the compiled side carries one injected
// design-flow error.  j picks the family, size and architecture in turn;
// rng draws the rest.
func compiledRequest(rng *rand.Rand, j int, mutate bool) (request, error) {
	var src *circuit.Circuit
	size := j / 4 % 2
	switch j % 4 {
	case 0:
		k := 3 + size
		src = bench.Grover(k, uint64(rng.Intn(1<<k)))
	case 1:
		src = bench.PhaseEstimation(3+size, rng.Float64())
	case 2:
		k := 4 + size
		src = bench.BernsteinVazirani(k, uint64(rng.Intn(1<<k)))
	default:
		c, err := bench.RandomReversible(4, rng.Int63())
		if err != nil {
			return request{}, err
		}
		src = c
	}
	arch := mapping.Linear(src.N)
	if j/8%2 == 1 {
		arch = mapping.Ring(src.N)
	}
	cp, err := harness.CompilePair(src.Name, src, arch)
	if err != nil {
		return request{}, err
	}
	req := request{class: "compiled", want: true}
	gp := cp.Compiled
	if mutate {
		req.class, req.want = "mutant", false
		if gp, _, err = errinject.InjectAny(gp, rng.Int63()); err != nil {
			return request{}, err
		}
	} else if j%5 == 0 {
		req.opts.Strategy = "gate_cost"
	}
	return req.serialise(decompose.Circuit(cp.Source, decompose.LevelCX), gp)
}

// cliffordRequest draws the j-th random Clifford circuit of its class,
// on 4–8 qubits in turn, and its routing onto a linear architecture; every
// other one of each size asks for the stabilizer routine.
func cliffordRequest(rng *rand.Rand, j int) (request, error) {
	n := 4 + j%5
	g := bench.RandomClifford(n, 10*n, rng.Int63())
	res, err := mapping.Map(g, mapping.Options{Arch: mapping.Linear(n), RestoreLayout: true, DecomposeSwaps: true})
	if err != nil {
		return request{}, err
	}
	req := request{class: "clifford", want: true}
	if j/5%2 == 0 {
		req.opts.Strategy = "stabilizer"
	}
	return req.serialise(g, res.Circuit)
}

func (r request) serialise(g, gp *circuit.Circuit) (request, error) {
	var err error
	if r.g, err = qasm.WriteString(g); err != nil {
		return request{}, err
	}
	if r.gp, err = qasm.WriteString(gp); err != nil {
		return request{}, err
	}
	return r, nil
}

// daemon is an in-process qcecd behind a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startDaemon() (*daemon, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // idle: drains at once
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: clients},
			Timeout:   checkLimit + 10*time.Second,
		},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := d.client.Get(d.url + "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	resp.Body.Close()
	return d, nil
}

// stop shuts the listener and the daemon down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), checkLimit)
	defer cancel()
	d.client.CloseIdleConnections()
	if err := errors.Join(d.hs.Shutdown(ctx), d.srv.Shutdown(ctx)); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: daemon shutdown:", err)
	}
	<-d.served
}

// metricsScrape reads the named counters from /metrics.
func (d *daemon) metricsScrape(names ...string) (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// answer is the client-side record of one request.
type answer struct {
	latency  time.Duration // the whole send, traced layer calls included
	cpu      time.Duration // process CPU time over the same interval
	http     time.Duration // the HTTP round trip alone
	resp     server.CheckResponse
	err      error
	parsedMB float64 // bytes run through qasm.Parse (traced only), in MB
}

// drive sends the whole stream through closed-loop clients and returns the
// answers in stream order plus the wall time from the first send to the
// last answer.  With calib set, a client runs a calibration round before
// every calibEvery-th request, outside the request's timing.
func (d *daemon) drive(stream []request, tr *tracer, calib *calibrator) ([]answer, time.Duration) {
	answers := make([]answer, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				if calib != nil && i%calibEvery == 0 {
					calib.round()
				}
				answers[i] = d.send(i, stream[i], tr)
			}
		}()
	}
	wg.Wait()
	return answers, time.Since(start)
}

// send posts one check.  Traced, it first runs the request's circuits
// through the layers the daemon calls before checking (qasm.Parse,
// fingerprint.Pair) and the program preparation (sim.Prepare), each under
// its own span.
func (d *daemon) send(i int, req request, tr *tracer) answer {
	body, err := json.Marshal(server.CheckRequest{G: req.g, Gp: req.gp, Options: req.opts})
	if err != nil {
		return answer{err: err}
	}
	var a answer
	root := 0
	sw := startWatch()
	if tr != nil {
		root = tr.begin("request", 0, i+1)
		s := tr.begin("qasm.Parse", root, i+1)
		pg, err1 := qasm.Parse(req.g)
		pgp, err2 := qasm.Parse(req.gp)
		tr.end(s)
		if err := errors.Join(err1, err2); err != nil {
			tr.end(root)
			return answer{err: err}
		}
		a.parsedMB = float64(len(req.g)+len(req.gp)) / 1e6
		s = tr.begin("fingerprint.Pair", root, i+1)
		fingerprint.Pair(pg.Circuit, pgp.Circuit)
		tr.end(s)
		s = tr.begin("sim.Prepare", root, i+1)
		sim.Prepare(pg.Circuit)
		sim.Prepare(pgp.Circuit)
		tr.end(s)
	}
	var h int
	if tr != nil {
		h = tr.begin("http", root, i+1)
	}
	postStart := time.Now()
	a.err = d.post(body, &a.resp)
	a.http = time.Since(postStart)
	if tr != nil {
		tr.end(h)
		tr.end(root)
	}
	a.latency, a.cpu = sw.elapsed()
	return a
}

func (d *daemon) post(body []byte, out *server.CheckResponse) error {
	resp, err := d.client.Post(d.url+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort, only for the error text
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// qcecdRun is the outcome of the passes of one run.  Every pass sends the
// whole stream to a fresh daemon.
type qcecdRun struct {
	class []string    // request class by stream position
	times [][]float64 // time to verdict per request and pass, in ms at the reference speed
	walls []float64   // wall time of each pass, in seconds
	cpus  []float64   // summed time of each pass's requests, in s at the reference speed
	// factor is the run's calibration factor over all passes (1 until they
	// are done).
	factor  float64
	decided []int // checks of each pass that did not fail
	outcomes
	fails  map[string]int // failed checks by class, over all passes
	cached map[string]int // answers served from the verdict cache by class, over all passes
}

// classes are the request classes of the stream, in printing order.
var classes = []string{"repeat", "compiled", "mutant", "clifford"}

func newQcecdRun(stream []request) *qcecdRun {
	r := &qcecdRun{class: make([]string, len(stream)), times: make([][]float64, len(stream)),
		outcomes: newOutcomes(len(stream)), fails: map[string]int{}, cached: map[string]int{}, factor: 1}
	for i, req := range stream {
		r.class[i] = req.class
	}
	return r
}

// judge compares one pass's answers with ground truth and re-simulates
// every counterexample on the dense simulator.
func (r *qcecdRun) judge(stream []request, answers []answer, wall time.Duration, factor float64) {
	decided := 0
	var cpu time.Duration
	for i, a := range answers {
		req := stream[i]
		t := ms(a.cpu) * factor
		cpu += a.cpu
		failed, wrong := false, false
		switch v := a.resp.Verdict; {
		case a.err != nil || a.latency > checkLimit || v == server.VerdictError || v == server.VerdictProbablyEquivalent || v == "":
			failed = true
		case v == server.VerdictNotEquivalent:
			w := witnessOK
			if a.resp.Counterexample != nil {
				w = witnessQASM(req, a.resp.Counterexample.Input, a.resp.DecidedBy)
			}
			failed = w == witnessInverse
			if req.want || w == witnessBad {
				wrong = true
				fmt.Fprintf(os.Stderr, "wrong verdict: request %d (%s) %s by %s, witness class %d\n",
					i, req.class, v, a.resp.DecidedBy, w)
			}
		default:
			if !req.want {
				wrong = true
				fmt.Fprintf(os.Stderr, "wrong verdict: request %d (%s) %s by %s\n", i, req.class, v, a.resp.DecidedBy)
			}
		}
		r.note(i, failed, wrong)
		if failed {
			r.fails[req.class]++
		} else {
			decided++
		}
		if a.resp.Cached {
			r.cached[req.class]++
		}
		r.times[i] = append(r.times[i], t)
	}
	r.walls = append(r.walls, wall.Seconds())
	r.cpus = append(r.cpus, cpu.Seconds()*factor)
	r.decided = append(r.decided, decided)
}

// witnessQASM re-simulates a counterexample of a request on the dense
// simulator, from the same QASM the daemon parsed.
func witnessQASM(req request, input uint64, decidedBy string) witness {
	pg, err1 := qasm.Parse(req.g)
	pgp, err2 := qasm.Parse(req.gp)
	if err1 != nil || err2 != nil {
		return witnessBad
	}
	return checkWitness(pg.Circuit, pgp.Circuit, nil, input, decidedBy)
}

// endToEnd fills the end-to-end metrics of untraced passes, at the
// reference speed.  Time to verdict is each request's median CPU time over
// the passes, as the library workloads take each pair's median.
func (r *qcecdRun) endToEnd(m *metrics) {
	times := r.checkTimes(r.times)
	rates := make([]float64, len(r.cpus))
	for k, c := range r.cpus {
		rates[k] = ratio(float64(r.decided[k]), c)
	}
	// The time one pass of CI jobs costs.
	m.set("verdict_s_total", median(r.cpus), "s")
	m.set("verdict_ms_geomean", geomean(times), "ms")
	m.set("verdict_ms_p50", median(times), "ms")
	m.set("verdict_ms_p95", quantile(times, 0.95), "ms")
	m.set("checks_per_s", median(rates), "1/s")
	attempted, _, _, decided := r.counts()
	m.set("decided_share", ratio(float64(decided), float64(attempted)), "ratio")
	m.samples = fmt.Sprintf("%d passes of %d requests at %d load client; verdict_ms_p50 and verdict_ms_p95 "+
		"over %d per-request times (%d above p95); verdict_s_total and checks_per_s are medians over the passes; "+
		"wall time of a pass %.4g s (median)", len(r.cpus), len(r.times), clients, len(times),
		int(float64(len(times))*0.05), median(r.walls))
}

// classTimes groups the per-request times (see checkTimes) by request
// class.
func (r *qcecdRun) classTimes() map[string][]float64 {
	out := map[string][]float64{}
	for i, t := range r.checkTimes(r.times) {
		if t > 0 {
			out[r.class[i]] = append(out[r.class[i]], t)
		}
	}
	return out
}

// printRows writes one row per request class.  The class shares of the
// stream are assumptions, so the rows keep each class's figures apart from
// the mix.  Times are over per-request times at the reference speed; failed
// and cached count answers over all passes.
func (r *qcecdRun) printRows(w io.Writer) {
	meds := r.classTimes()
	fmt.Fprintf(w, "# %-10s %8s %7s %7s %10s %10s %10s\n",
		"class", "requests", "failed", "cached", "geomean_ms", "median_ms", "p95_ms")
	for _, c := range classes {
		t := meds[c]
		fmt.Fprintf(w, "# %-10s %8d %7d %7d %10.3f %10.3f %10.3f\n",
			c, len(t), r.fails[c], r.cached[c], geomean(t), median(t), quantile(t, 0.95))
	}
}

// setClassGeomeans records each request class's verdict_ms_geomean, which
// does not depend on the class shares of the stream.
func setClassGeomeans(m *metrics, r *qcecdRun) {
	var meds map[string][]float64
	if r != nil {
		meds = r.classTimes()
	}
	for _, c := range classes {
		m.set("qcecd."+c+".verdict_ms_geomean", geomean(meds[c]), "ms")
	}
}

// runQcecd measures the qcecd-ci stream: it sends the whole stream to d,
// then to a fresh daemon per pass until the time is up, and verifies the
// answers.  It then clears *stream, the last reference to the requests, and
// reports the live heap while the last daemon is still up, so the heap is
// what one daemon retains after the stream.  It stops every daemon.
func runQcecd(d *daemon, stream *[]request, seconds float64, m *metrics) (*qcecdRun, error) {
	r := newQcecdRun(*stream)
	calib, err := newCalibrator()
	if err != nil {
		d.stop()
		return nil, err
	}
	clock := newPassClock(seconds, 1)
	for k := 0; clock.another(k); k++ {
		if k > 0 {
			d.stop()
			var err error
			if d, err = startDaemon(); err != nil {
				return nil, err
			}
		}
		// Each pass starts on a collected heap, with no garbage left by
		// the daemon before or by the stream's generation.
		runtime.GC()
		rounds := len(calib.samples)
		answers, wall := d.drive(*stream, nil, calib)
		r.judge(*stream, answers, wall, calib.factorSince(rounds))
	}
	defer d.stop()
	r.factor = calib.factor()
	r.endToEnd(m)
	m.samples += "; " + calib.String()
	*stream = nil
	d.client.CloseIdleConnections()
	setHeap(m)
	return r, nil
}

// traceQcecd measures the per-layer metrics.  Like runQcecd it sends the
// whole stream to a fresh daemon per pass, alternating untraced and traced
// passes, at least one of each.  Layer times are means over all traced
// requests; counts, allocation and /metrics cover the first traced pass.
func traceQcecd(stream []request, seconds float64, tr *tracer, m *metrics) (*qcecdRun, error) {
	plain, traced := newQcecdRun(stream), newQcecdRun(stream)
	calib, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	clock := newPassClock(seconds, 2)
	var parsedMB, queue, overhead, simMS, ecMS, hitMS float64
	var uncached, cached int
	for k := 0; clock.another(k); k++ {
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if k%2 == 0 {
			rounds := len(calib.samples)
			answers, wall := d.drive(stream, nil, calib)
			d.stop()
			plain.judge(stream, answers, wall, calib.factorSince(rounds))
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rounds := len(calib.samples)
		answers, wall := d.drive(stream, tr, calib)
		runtime.ReadMemStats(&after)
		var scrape map[string]float64
		if k == 1 {
			scrape, err = d.metricsScrape("qcecd_cache_hits_total", "qcecd_cache_misses_total",
				"qcecd_dd_pool_gets_total", "qcecd_dd_pool_reuses_total")
		}
		d.stop()
		if err != nil {
			return nil, err
		}
		traced.judge(stream, answers, wall, calib.factorSince(rounds))
		numSims := 0
		for _, a := range answers {
			if a.err != nil {
				continue
			}
			parsedMB += a.parsedMB
			if a.resp.Cached {
				cached++
				hitMS += ms(a.http)
				continue
			}
			uncached++
			t := a.resp.Timings
			queue += t.QueueMS
			simMS += t.SimMS
			ecMS += t.ECMS
			numSims += a.resp.NumSims
			// The daemon's share beyond queueing and checking: HTTP, JSON,
			// parsing, fingerprinting and the cache lookup.
			overhead += ms(a.http) - t.QueueMS - t.TotalMS
		}
		if k == 1 {
			m.set("server.cache_hit_ratio", ratio(scrape["qcecd_cache_hits_total"],
				scrape["qcecd_cache_hits_total"]+scrape["qcecd_cache_misses_total"]), "ratio")
			m.set("server.pool_reuse_ratio", ratio(scrape["qcecd_dd_pool_reuses_total"], scrape["qcecd_dd_pool_gets_total"]), "ratio")
			m.set("core.num_sims", float64(numSims), "count")
			m.set("runtime.alloc_mib_per_check", ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(len(stream))), "MiB")
			m.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC), "count")
		}
	}

	self, count := tr.selfTimes()
	reqs := float64(count["request"])
	m.set("qasm.parse_ms", ratio(ms(self["qasm.Parse"]), reqs), "ms")
	m.set("qasm.parse_mb_per_s", ratio(parsedMB, self["qasm.Parse"].Seconds()), "MB/s")
	m.set("fingerprint.pair_ms", ratio(ms(self["fingerprint.Pair"]), reqs), "ms")
	m.set("sim.prepare_ms", ratio(ms(self["sim.Prepare"]), reqs), "ms")
	m.set("server.queue_ms", ratio(queue, float64(uncached)), "ms")
	m.set("server.overhead_ms", ratio(overhead, float64(uncached)), "ms")
	m.set("server.hit_ms", ratio(hitMS, float64(cached)), "ms")
	m.set("core.sim_ms", ratio(simMS, float64(uncached)), "ms")
	m.set("ec.check_ms", ratio(ecMS, float64(uncached)), "ms")
	// Not on the wire: the response merges the stages' DD counters and
	// carries no complete-routine or complex-table counters.
	for _, k := range []string{"ec.gates_applied", "ec.peak_nodes", "cn.weight_lookups", "cn.weights_stored"} {
		m.set(k, 0, "count")
	}
	m.set("cn.weight_hit_ratio", 0, "ratio")
	setDD(m, "dd.sim.", dd.Stats{})
	setDD(m, "dd.ec.", dd.Stats{})
	m.set("trace.overhead", ratio(geomean(traced.checkTimes(traced.times)), geomean(plain.checkTimes(plain.times))), "ratio")
	setClassGeomeans(m, plain)
	for i := range stream {
		traced.note(i, plain.failed[i], plain.wrong[i])
	}
	return traced, nil
}
