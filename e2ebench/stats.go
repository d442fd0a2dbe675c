package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time the process has used so far, on all its
// threads.  It excludes the time the hypervisor runs other guests on this
// machine's virtual CPUs (steal time), which wall time includes.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// workClock is the clock checks and calibration rounds are timed on:
// process CPU time, or in a traced run wall time since the run started.
// While the CPU profiler of a traced run is on, the kernel reads the
// process CPU clock from its CPU timer, which advances only at scheduler
// ticks (4 ms here), too coarse for checks of a few milliseconds.  main
// sets it once, before anything is timed.
var workClock = cpuNow

// stopwatch measures wall time and workClock over the same interval.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: workClock()} }

// elapsed returns the wall and workClock time since the watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), workClock() - s.cpu
}

// median returns the median of xs (0 for an empty slice); xs is not
// modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passClock paces a run's passes: after the first min passes, a pass
// starts only if it is expected to end before the deadline, judged by the
// longest pass so far.  Runs thus stay within their time however long a
// pass is.
type passClock struct {
	deadline, last time.Time
	longest        time.Duration
	min            int
}

func newPassClock(seconds float64, min int) *passClock {
	now := time.Now()
	return &passClock{deadline: now.Add(time.Duration(seconds * float64(time.Second))), last: now, min: min}
}

// another reports whether pass k (counted from 0) should run.
func (c *passClock) another(k int) bool {
	now := time.Now()
	if k > 0 {
		c.longest = max(c.longest, now.Sub(c.last))
	}
	c.last = now
	return k < c.min || !now.Add(c.longest).After(c.deadline)
}

// outcomes records, per distinct check of a run, whether it failed or was
// judged wrong in some pass.  A check is one question asked of the program;
// the passes repeat it to time it, so the counts do not depend on how many
// passes fit into the run.
type outcomes struct {
	failed, wrong []bool
}

func newOutcomes(n int) outcomes {
	return outcomes{failed: make([]bool, n), wrong: make([]bool, n)}
}

func (o outcomes) note(i int, failed, wrong bool) {
	o.failed[i] = o.failed[i] || failed
	o.wrong[i] = o.wrong[i] || wrong
}

// checkTimes returns, per distinct check, its median over samples,
// checkLimit when it failed in some pass, or 0 when it has no samples.
func (o outcomes) checkTimes(samples [][]float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch {
		case len(s) == 0:
		case o.failed[i]:
			out[i] = ms(checkLimit)
		default:
			out[i] = median(s)
		}
	}
	return out
}

// nonzero returns the times of checkTimes that have samples.
func nonzero(times []float64) []float64 {
	var out []float64
	for _, t := range times {
		if t > 0 {
			out = append(out, t)
		}
	}
	return out
}

// counts returns the distinct checks, those that failed in some pass, those
// judged wrong in some pass, and those neither failed nor wrong.
func (o outcomes) counts() (attempted, failed, wrong, decided int) {
	for i := range o.failed {
		switch {
		case o.wrong[i]:
			wrong++
			if o.failed[i] {
				failed++
			}
		case o.failed[i]:
			failed++
		default:
			decided++
		}
	}
	return len(o.failed), failed, wrong, decided
}
