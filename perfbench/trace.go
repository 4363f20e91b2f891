package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// tracer records the benchmark's own spans around the public calls it
// makes; nothing inside the program is traced. All methods accept a nil
// receiver, which is the untraced run.
type tracer struct {
	tr *obs.Tracer
}

// traceRingCap bounds each track's span ring. The serving pass records one
// span per request, more than this; the ring then keeps the newest spans and
// the overwritten ones are reported as trace.dropped.
const traceRingCap = 1 << 15

func newTracer() *tracer { return &tracer{tr: obs.New(obs.WithRingCap(traceRingCap))} }

func (t *tracer) track(name string) int {
	if t == nil {
		return -1
	}
	return t.tr.Track(name)
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return t.tr.Now()
}

// span records name on track as having run from start until now.
func (t *tracer) span(track int, cat obs.Cat, name string, start int64) {
	if t == nil {
		return
	}
	t.tr.Span(track, cat, name, start, 0, 0)
}

// durations returns every recorded span's duration in milliseconds, by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, spans := range t.tr.Spans() {
		for _, s := range spans {
			out[s.Name] = append(out[s.Name], float64(s.Dur)/float64(time.Millisecond))
		}
	}
	return out
}

// timed runs f once per repetition inside a span and returns the median
// duration in milliseconds.
func (t *tracer) timed(track int, cat obs.Cat, name string, reps int, f func() error) (float64, error) {
	ds := make([]float64, reps)
	for i := range ds {
		s := t.now()
		t0 := wallNow()
		if err := f(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds[i] = msSince(t0)
		t.span(track, cat, name, s)
	}
	return median(ds), nil
}

// export writes the Chrome trace-event JSON to dir and validates it with the
// schema check cmd/tracecheck applies.
func (t *tracer) export(dir, workload string) (string, error) {
	var buf bytes.Buffer
	if err := t.tr.WriteChromeTrace(&buf); err != nil {
		return "", err
	}
	if err := obs.CheckChromeTrace(buf.Bytes()); err != nil {
		return "", fmt.Errorf("exported trace fails the schema check: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// traced is the per-layer run. Every workload, in a fixed order, is set up
// and runs its short traced pass and layer probes, so every per-layer metric
// is reported whichever workload was named.
func traced(name string, seed uint64, window time.Duration, p params, outDir string) (*output, map[string]int, error) {
	tr := newTracer()
	m := metrics{}
	total := &result{}
	var samples map[string]int
	for _, wn := range workloadOrder {
		s, err := traceWorkload(wn, wn == name, seed, window, p, tr, m, total)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", wn, err)
		}
		if wn == name {
			samples = s
		}
	}
	n := 0
	for _, spans := range tr.tr.Spans() {
		n += len(spans)
	}
	m.set("trace.spans", float64(n), "count")
	m.set("trace.dropped", float64(tr.tr.Dropped()), "count")
	path, err := tr.export(outDir, name)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
	return total.output(m), samples, nil
}

// traceWorkload sets one workload up and runs its layer probes. The named
// workload is first measured untraced, traced and untraced again, over a
// third of the window each, on that one set-up: the traced window minus the
// mean of the untraced ones is the tracing overhead, with any drift across
// the three windows cancelled to first order.
func traceWorkload(name string, named bool, seed uint64, window time.Duration, p params, tr *tracer, m metrics, total *result) (map[string]int, error) {
	w, _ := newWorkload(name, p)
	defer w.close()
	if err := w.setup(seed); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var samples map[string]int
	if named {
		var runs [3]*result
		for i := range runs {
			var t *tracer
			if i == 1 {
				t = tr
			}
			r, err := w.run(window/3, t)
			if err != nil {
				return nil, err
			}
			runs[i] = r
			total.attempted += r.attempted
			total.fails += r.fails
		}
		before, traced, after := runs[0].endToEnd(), runs[1].endToEnd(), runs[2].endToEnd()
		for k, v := range traced {
			m.set("trace.overhead."+k, v.Value-(before[k].Value+after[k].Value)/2, v.Unit)
		}
		samples = runs[1].samples()
	}
	if err := w.layers(tr, m, total); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	return samples, nil
}
