package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// briefSeconds is long enough for every workload's p99 to keep ten
// samples beyond it.
func briefSeconds(w workload) float64 {
	if w.conns[0].window == 1 {
		return 4
	}
	return 1
}

// TestMetricsMatchBenchmarkJSON runs every workload briefly, untraced and
// traced, and checks each emits exactly the metrics BENCHMARK.json names,
// with their units, and passes the correctness gate.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, wl := range s.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		for _, traceOn := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range s.EndToEnd {
				if !traceOn {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range s.PerLayer {
				if traceOn {
					want[m.Name] = m.Unit
				}
			}
			res, _, err := run(options{workload: w, seed: 7, seconds: briefSeconds(w), trace: traceOn, setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traceOn, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: gate failed: %+v", w.name, traceOn, res)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, traceOn, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traceOn, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, traceOn, name)
				}
			}
		}
	}
}

// TestGateCatchesWrongOracle runs every listed workload with a deliberately
// wrong oracle and expects the gate to fail, untraced and traced. One fault
// is caught by the replica check or the read-back; the other reaches only
// the last crash's CheckRecovered, after the traffic that precedes it.
func TestGateCatchesWrongOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range loadSpec(t).Workloads {
		w := workloads[wl.Name]
		for _, wrong := range []wrongOracle{wrongValue, staleRecovered} {
			for _, traceOn := range []bool{false, true} {
				res, _, err := run(options{workload: w, seed: 3, seconds: 0.2, trace: traceOn, setups: 1, wrongOracle: wrong})
				if err != nil {
					t.Fatalf("%s wrong=%d trace=%v: %v", w.name, wrong, traceOn, err)
				}
				if res.Correct {
					t.Fatalf("%s wrong=%d trace=%v: gate passed with a wrong oracle value", w.name, wrong, traceOn)
				}
			}
		}
	}
}
