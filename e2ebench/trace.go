package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function.  Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Check  int    `json:"check"`  // the check (or request) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  It is safe for
// concurrent use by the load clients.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, check int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Check: check, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, per span name, the summed self time (duration minus
// the time its children cover) and the number of spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
		count[s.Name]++
	}
	return self, count
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuProfile records a CPU profile of the traced run to path.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// shares stops the profile and returns the CPU shares of the complex-number
// table (package qcec/internal/cn), the DD package (qcec/internal/dd) and
// the Go garbage collector, each as a fraction of all samples.  A sample
// counts for the GC when its stack is in a background mark worker, a
// mutator assist or the sweeper; otherwise it counts for the package of its
// innermost qcec frame, so runtime work such as map hashing is charged to
// the package that asked for it.  It reads the stacks with
// `go tool pprof -traces`.
func (p *cpuProfile) shares() (cn, dd, gc float64, err error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return 0, 0, 0, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	var total, cnT, ddT, gcT time.Duration
	var val time.Duration
	var frames []string
	flush := func() {
		if val == 0 {
			return
		}
		total += val
		owner := ""
		for _, fr := range frames {
			switch {
			case fr == "runtime.gcBgMarkWorker" || fr == "runtime.gcAssistAlloc" || fr == "runtime.bgsweep":
				owner = "gc"
			case owner == "" && strings.HasPrefix(fr, "qcec/internal/cn."):
				owner = "cn"
			case owner == "" && strings.HasPrefix(fr, "qcec/internal/dd."):
				owner = "dd"
			case owner == "" && strings.HasPrefix(fr, "qcec/"):
				owner = "other"
			}
		}
		switch owner {
		case "cn":
			cnT += val
		case "dd":
			ddT += val
		case "gc":
			gcT += val
		}
		val, frames = 0, nil
	}
	// Each sample is a value and its leaf frame on one line, its callers on
	// the following lines, and a separator line.
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case strings.HasPrefix(f[0], "-----------+"):
			flush()
		case len(f) >= 2 && isDuration(f[0]):
			flush()
			val, _ = time.ParseDuration(f[0])
			frames = []string{f[1]}
		case val > 0:
			frames = append(frames, f[0]) // drops an "(inline)" marker
		}
	}
	flush()
	if total == 0 {
		return 0, 0, 0, nil
	}
	return cnT.Seconds() / total.Seconds(), ddT.Seconds() / total.Seconds(), gcT.Seconds() / total.Seconds(), nil
}

func isDuration(s string) bool {
	_, err := time.ParseDuration(s)
	return err == nil
}
