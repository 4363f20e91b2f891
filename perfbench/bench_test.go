package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the outputs are checked against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadOrder) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadOrder)
	}
	return s
}

// quick runs a workload at minimum length: one set-up, a short window whose
// sample minimums are scaled down, and two repetitions of each layer probe.
var quick = params{setups: 1, minScale: 0.01, reps: 2}

// checkOutput requires exactly the named metrics, each finite and in its
// unit, and no failed operation.
func checkOutput(t *testing.T, out *output, want []specMetric) {
	t.Helper()
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	for _, w := range want {
		m, ok := out.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, want %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(out.Metrics), len(want))
	}
}

func TestEndToEndMetrics(t *testing.T) {
	s := readSpec(t)
	for _, name := range workloadOrder {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				out, _, err := endToEnd(name, seed, 100*time.Millisecond, quick)
				if err != nil {
					t.Fatal(err)
				}
				checkOutput(t, out, s.EndToEnd)
			})
		}
	}
}

func TestPerLayerMetrics(t *testing.T) {
	s := readSpec(t)
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			out, _, err := traced(name, 1, 100*time.Millisecond, quick, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkOutput(t, out, s.PerLayer)
		})
	}
}
