package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// calibrator times a fixed workload of the benchmark's own, independent of
// the program under test, between the checks of a run.  The host of the
// reference machine changes its speed for minutes at a time, and process
// CPU time follows it; the rounds measure that speed, so that a run can
// state its times at the reference speed (see NOTES.md).
type calibrator struct {
	// table is outside the Go heap, so that it changes neither the
	// collector's pacing nor heap_live_mib.
	table   []uint64
	samples []float64 // CPU ms per round
}

const (
	calibTableLen = 1 << 21 // 16 MiB, larger than the caches
	calibSteps    = 1 << 17
	// refRoundMS is the median CPU time of one round, run between checks,
	// on the reference machine at its usual speed.
	refRoundMS = 2.5
)

func newCalibrator() (*calibrator, error) {
	b, err := syscall.Mmap(-1, 0, calibTableLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	c := &calibrator{table: unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calibTableLen)}
	c.round() // fault the table in; the first round pays for the pages
	c.samples = c.samples[:0]
	return c, nil
}

// round runs one fixed round of xorshift steps, each a read-modify-write at
// a pseudo-random place in the table, and records its CPU time.
func (c *calibrator) round() {
	start := workClock()
	x := uint64(88172645463325252)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.table[x&(calibTableLen-1)] += x
	}
	c.samples = append(c.samples, ms(workClock()-start))
}

// factor is the reference speed over the run's speed: a time measured in
// the run, times factor, is that time at the reference speed.
func (c *calibrator) factor() float64 { return c.factorSince(0) }

// factorSince is factor over the rounds from the k-th on, e.g. those of one
// pass.
func (c *calibrator) factorSince(k int) float64 {
	return refRoundMS / median(c.samples[k:])
}

func (c *calibrator) String() string {
	return fmt.Sprintf("calibration: median round %.4g ms over %d rounds, factor %.4g",
		median(c.samples), len(c.samples), c.factor())
}
