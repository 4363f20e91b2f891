package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	repmetrics "repro/internal/metrics"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value; encoding/json writes the keys
// sorted, so the output is stable.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is what one measured window of a workload produced. op and op2 are
// the latencies of the workload's two timed operations in milliseconds;
// README.md names them per workload. opTail and op2Tail are the tail
// percentiles the window was sized for: at least ten samples lie beyond them.
type result struct {
	op, op2          []float64
	opTail, op2Tail  float64
	cpuMs            float64 // process CPU time spent inside the window
	rounds           int     // the unit cpu_ms_per_op is divided by
	peakRSSMB        float64
	attempted, fails int
}

// check counts one checked operation and whether it failed.
func (r *result) check(ok bool) {
	r.attempted++
	if !ok {
		r.fails++
	}
}

func (r *result) endToEnd() metrics {
	m := metrics{}
	m.set("op_ms.p50", quantile(r.op, 0.5), "ms")
	m.set("op_ms.tail", tail(r.op, r.opTail), "ms")
	m.set("op2_ms.p50", quantile(r.op2, 0.5), "ms")
	m.set("op2_ms.tail", tail(r.op2, r.op2Tail), "ms")
	m.set("cpu_ms_per_op", r.cpuMs/float64(max(r.rounds, 1)), "ms")
	return m
}

func (r *result) samples() map[string]int {
	return map[string]int{"op_ms": len(r.op), "op2_ms": len(r.op2), "cpu_ms_per_op": r.rounds}
}

func (r *result) output(m metrics) *output {
	return &output{Correct: r.fails == 0, Attempted: max(r.attempted, 1), Failed: r.fails, Metrics: m}
}

// minForTail is the sample count a percentile needs to have ten samples
// beyond it.
func minForTail(p float64) int { return int(math.Ceil(10 / (1 - p))) }

// quantile returns the p-quantile of xs (linear interpolation); xs is not
// modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return repmetrics.Percentile(s, p)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the p-quantile of each run of consecutive samples just long
// enough to hold ten samples beyond it, and the median over those runs.
// One stall of the shared host then moves one chunk's figure, not the
// window's; with fewer samples than two chunks it is the plain quantile.
func tail(xs []float64, p float64) float64 {
	n := len(xs) / minForTail(p)
	if n < 2 {
		return quantile(xs, p)
	}
	size := len(xs) / n
	per := make([]float64, n)
	for i := range per {
		per[i] = quantile(xs[i*size:(i+1)*size], p)
	}
	return median(per)
}

// wallNow reads the wall clock. It is the benchmark's only read: the
// readings are its measurements and never reach the program under test.
func wallNow() time.Time {
	//detlint:ignore walltime -- measuring wall time is the benchmark's purpose; no reading feeds back into the program under test
	return time.Now()
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t0 time.Time) float64 { return durMs(wallNow().Sub(t0)) }

// usage is the process's CPU time and peak resident set, read from the
// kernel.
type usage struct {
	cpu      time.Duration
	maxRSSMB float64
}

func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	// Linux reports ru_maxrss in KiB.
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), maxRSSMB: float64(ru.Maxrss) / 1024}, nil
}

// window tracks a measured window: it ends once the wall-clock length has
// passed and the sample minimum is met, or at the hard cap that keeps one
// invocation inside its time limit.
type window struct {
	start  time.Time
	length time.Duration
	u0     usage
}

const windowHardCap = 60 * time.Second

func startWindow(length time.Duration) (*window, error) {
	u, err := readUsage()
	if err != nil {
		return nil, err
	}
	return &window{start: wallNow(), length: length, u0: u}, nil
}

// done reports whether the window may end with have of the need samples.
func (w *window) done(have, need int) bool {
	el := wallNow().Sub(w.start)
	return el >= windowHardCap || (el >= w.length && have >= need)
}

// finish stores the window's CPU time and the peak RSS so far in r.
func (w *window) finish(r *result) error {
	u, err := readUsage()
	if err != nil {
		return err
	}
	r.cpuMs = float64(u.cpu-w.u0.cpu) / float64(time.Millisecond)
	r.peakRSSMB = u.maxRSSMB
	return nil
}
