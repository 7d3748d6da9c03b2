package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeWorkloads runs every workload as a harness self-test (1/100 of
// the requests, quick geometry): no operation may fail, a deterministic
// workload's model digest must repeat across two runs and between the
// traced and the untraced repetition, and every metric the run emits must
// be one the tables declare.
func TestSmokeWorkloads(t *testing.T) {
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			rc := runCtx{seed: 7, scale: 1, smoke: true}
			first := rc
			r, err := spec.run(&first)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.reqs == 0 {
				t.Fatalf("%d of %d operations failed", r.failed, r.reqs)
			}
			e2e := r.endToEnd()
			for _, m := range endToEndMetrics {
				// A smoke run is too short to erase a block, so only the
				// full-size runs can show that no metric reads 0.
				if _, ok := e2e[m.Name]; !ok {
					t.Errorf("end-to-end metric %s is declared but not emitted", m.Name)
				}
				delete(e2e, m.Name)
			}
			for n := range e2e {
				t.Errorf("end-to-end metric %s is emitted but not declared", n)
			}

			d := &detail{Reps: map[string][]float64{}}
			res := runTraced(spec, rc, t.TempDir(), d)
			for _, p := range d.Problems {
				t.Error(p)
			}
			if res.Failed != 0 {
				t.Errorf("traced run: %d operations failed", res.Failed)
			}
			if spec.deterministic && d.Digest != r.dig.String() {
				t.Errorf("model digest %s in the second run, %s in the first", d.Digest, r.dig)
			}
			if len(res.Metrics) != len(perLayerMetrics) {
				t.Errorf("traced run emits %d metrics, %d are declared", len(res.Metrics), len(perLayerMetrics))
			}
		})
	}
}

// TestBenchmarkJSONMatchesBinary keeps BENCHMARK.json and the binary's
// own tables (-list) from drifting apart.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the counts are sized for %d", file.RunSeconds, refSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the binary", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the binary %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound) {
				t.Errorf("%s metric %s: bound differs from the binary's %g", kind, m.Name, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s metric %s carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEndMetrics, true)
	check("per_layer", file.PerLayer, perLayerMetrics, false)
	if len(perLayerMetrics) > 128 {
		t.Errorf("%d per-layer metrics exceed the cap of 128", len(perLayerMetrics))
	}
}
