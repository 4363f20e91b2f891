// Command perfbench is the repository's benchmark: one workload per
// invocation, measured from outside through the public Go API of each layer,
// with the outputs checked and every metric printed by name and unit.
//
//	perfbench --workload train_resnet50 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is the end-to-end record;
// with --trace 1 it is the per-layer record of a separate traced run. The
// line before it records the machine and the per-metric sample counts.
// README.md explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/kernels"
)

// bench is one benchmark workload. setup does everything a user pays
// before the first timed operation and is repeated for the setup_s median;
// run measures operations for at least the window (and until the tail
// percentiles have their samples), recording spans on tr when it is non-nil;
// layers runs a short traced pass and the isolated probes of this workload's
// layers, adding their per-layer metrics to m and their checks to r; close
// stops whatever setup started.
type bench interface {
	setup(seed uint64) error
	run(window time.Duration, tr *tracer) (*result, error)
	layers(tr *tracer, m metrics, r *result) error
	close()
}

// params sizes a run. The benchmark always uses defaultParams; the
// self-test shrinks the sample minimums so every workload runs at minimum
// length.
type params struct {
	setups int // set-ups per run; setup_s is their median
	// minScale multiplies every sample minimum: 1 keeps ten samples beyond
	// each tail percentile.
	minScale float64
	reps     int // repetitions of each isolated layer probe
}

func defaultParams() params { return params{setups: 3, minScale: 1, reps: 30} }

// need is how many samples a window must collect before it may end, for a
// tail percentile pct.
func (p params) need(pct float64) int { return max(1, int(float64(minForTail(pct))*p.minScale)) }

// workloadOrder is the order in which a traced run visits the workloads.
var workloadOrder = []string{"train_resnet50", "elastic_neumf", "plane_replay", "serve_open"}

func newWorkload(name string, p params) (bench, bool) {
	switch name {
	case "train_resnet50":
		return &trainWorkload{p: p}, true
	case "elastic_neumf":
		return &elasticWorkload{p: p}, true
	case "plane_replay":
		return &planeWorkload{p: p}, true
	case "serve_open":
		return &serveWorkload{p: p}, true
	}
	return nil, false
}

// traceDir is where a traced run exports its Chrome trace, relative to the
// repository root the benchmark runs from.
const traceDir = ".bench_build/perfbench"

// output is the record the last line of standard output carries.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	seed := flag.Uint64("seed", 1, "seed every workload input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	p := defaultParams()
	if _, ok := newWorkload(*name, p); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var out *output
	var samples map[string]int
	var err error
	if *trace == 0 {
		out, samples, err = endToEnd(*name, *seed, window, p)
	} else {
		out, samples, err = traced(*name, *seed, window, p, traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"machine": machine(), "samples": samples,
	})
	fmt.Println(string(info))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd sets the workload up p.setups times, keeps the last set-up, and
// measures the untraced window on it.
func endToEnd(name string, seed uint64, window time.Duration, p params) (*output, map[string]int, error) {
	var w bench
	setups := make([]float64, p.setups)
	for i := range setups {
		if w != nil {
			w.close()
		}
		w, _ = newWorkload(name, p)
		t0 := wallNow()
		if err := w.setup(seed); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups[i] = wallNow().Sub(t0).Seconds()
	}
	defer w.close()
	r, err := w.run(window, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	m := r.endToEnd()
	m.set("setup_s", median(setups), "s")
	m.set("peak_rss_mb", r.peakRSSMB, "MB")
	return r.output(m), r.samples(), nil
}

// machine is the reproducibility record: numbers are comparable only
// between runs whose records match.
func machine() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"isa":        kernels.ActiveISA(),
		"go":         runtime.Version(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
