package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// exactMetrics lists the per-layer metrics BENCHMARK.json gives the
// unit "count": counts that repeat exactly for a fixed seed, however
// the two clients interleave.
func exactMetrics(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range def.PerLayer {
		if m.Unit == "count" {
			out = append(out, m.Name)
		}
	}
	if len(out) == 0 {
		t.Fatal("BENCHMARK.json lists no exact counts")
	}
	return out
}

// TestExactCountsRepeat runs each workload twice, traced, with the same
// seed and shrunk populations, and requires every exact count to
// repeat and every run to pass the correctness gate without failures.
func TestExactCountsRepeat(t *testing.T) {
	exact := exactMetrics(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				cfg := config{workload: name, seed: 7, seconds: 0.3, trace: true, work: t.TempDir(), small: true}
				res, err := run(context.Background(), cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: correct %v, %d of %d ops failed", i, res.Correct, res.Failed, res.Attempted)
				}
				runs[i] = res
			}
			for _, m := range exact {
				a, ok := runs[0].Metrics[m]
				if !ok {
					t.Errorf("%s: not reported", m)
					continue
				}
				if b := runs[1].Metrics[m]; a.Value != b.Value {
					t.Errorf("%s: %v then %v", m, a.Value, b.Value)
				}
			}
		})
	}
}

// TestEveryMetricReported requires a run to print every metric
// BENCHMARK.json defines, end-to-end metrics untraced and per-layer
// metrics traced, each with its unit.
func TestEveryMetricReported(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		want := def.EndToEnd
		if trace {
			want = def.PerLayer
		}
		cfg := config{workload: "registry-read", seed: 3, seconds: 0.2, trace: trace, work: t.TempDir(), small: true}
		res, err := run(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %v: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %v: %s reported %v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}
