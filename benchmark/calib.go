package main

import "time"

// The machine this benchmark runs on is a small VM whose speed drifts:
// identical work takes up to a quarter longer from one minute to the
// next, for tens of seconds at a time, and the drift does not show as
// steal time. No run length the time budget allows averages that out.
// So the timed pass measures the machine as it goes: around every slice
// of work it runs a fixed reference loop, and the timings of the slice
// are divided by how much slower than nominal the reference ran. What is
// reported is therefore time on a machine that runs the reference at
// its nominal speed. The reference is this file's code and nothing else,
// so no change to the program under test can move it.

// referenceNominalMS is the reference loop's time on this VM when it is
// quiet; it only fixes the scale of the calibrated numbers.
const referenceNominalMS = 9.7

// referenceReps is how many reference runs one sample of the machine's
// speed takes.
const referenceReps = 8

var referenceSink int

// reference is the fixed work: hash-map updates over a working set of a
// few megabytes with small allocations, which is what the engine's inner
// loops do too. A loop that stays in the first-level cache follows the
// machine's drift worse than not calibrating at all.
func reference() {
	m := map[int][]byte{}
	x := uint64(88172645463325252)
	for i := 0; i < 60000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int(x % 400000)
		m[k] = append(m[k], byte(x))
		if len(m[k]) > 8 {
			m[k] = make([]byte, 0, 4)
		}
	}
	referenceSink += len(m)
}

// speed collects reference runs taken around one stretch of work.
type speed struct {
	refs []float64
	tr   *Tracer
}

// sample runs the reference referenceReps times.
func (s *speed) sample() {
	for i := 0; i < referenceReps; i++ {
		start := time.Now()
		reference()
		end := time.Now()
		s.refs = append(s.refs, float64(end.Sub(start).Nanoseconds())/1e6)
		s.tr.Record(s.tr.NewTrace(), 0, "calib.reference", start, end, nil)
	}
}

// factor is how much slower than nominal the machine was: the stretch's
// timings are divided by it.
func (s *speed) factor() float64 {
	return median(s.refs) / referenceNominalMS
}

// disturbedOver marks a stretch of work as disturbed: its reference ran
// this many times slower than in the quietest stretch of its kind in
// the same pass. On this VM the hypervisor at times takes most of a
// CPU away for seconds; timings from such a stretch say nothing about
// the program, calibrated or not, because waiting does not slow down
// the way computing does.
const disturbedOver = 1.5

// quiet says which stretches to keep: all that are not disturbed, or
// all of them when fewer than two would remain.
func quiet(factors []float64) []bool {
	keep := make([]bool, len(factors))
	if len(factors) == 0 {
		return keep
	}
	lo := sorted(factors)[0]
	kept := 0
	for i, f := range factors {
		keep[i] = f <= disturbedOver*lo
		if keep[i] {
			kept++
		}
	}
	if kept < min(2, len(factors)) {
		for i := range keep {
			keep[i] = true
		}
	}
	return keep
}

// scaled returns xs divided by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / f
	}
	return out
}

// calibrate divides each stretch's one timing by its factor and leaves
// out the disturbed stretches; it returns what is left and how many
// were left out. With calibration off it returns the timings as they
// are.
func calibrate(xs, factors []float64, on bool) ([]float64, int) {
	if !on {
		return xs, 0
	}
	keep := quiet(factors)
	var out []float64
	for i, x := range xs {
		if keep[i] {
			out = append(out, x/factors[i])
		}
	}
	return out, len(xs) - len(out)
}
