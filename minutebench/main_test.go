package main

import (
	"encoding/json"
	"os"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// small shrinks a fleet workload tenfold and shortens its warm-up, so
// the smoke test runs every workload in seconds.
func small(w workload) workload {
	f, ok := w.(*fleetSpec)
	if !ok {
		return w
	}
	s := *f
	s.hosts /= 10
	s.services /= 10
	s.instances /= 10
	s.warmup = min(s.warmup, 60)
	s.landscapes = 1
	s.minimum = 30
	return &s
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and checks the output checks pass and that exactly the declared
// metrics come out, with their declared units.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name, w := range workloads() {
		for _, traced := range []bool{false, true} {
			out, err := run(small(w), name, 7, 0.05, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
				t.Errorf("%s traced=%t: correct %t, %d attempted, %d failed",
					name, traced, out.Correct, out.Attempted, out.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(out.Metrics), len(want))
			}
			for k, unit := range want {
				got, ok := out.Metrics[k]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", name, traced, k, got, unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, k, got.Value)
				}
			}
		}
	}
}
