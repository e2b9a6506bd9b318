package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("workload %d: %v", i, err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// smoke runs a workload briefly: a short Zipf stream, one set-up and the
// smallest budget, so each phase makes the fewest whole replays it can.
func smoke(t *testing.T, name string, trace bool) result {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{workload: w, seed: 3, seconds: 0.1, trace: trace, draws: 1500, setupReps: 1, out: t.TempDir()}
	var stdout, stderr bytes.Buffer
	res, err := runConfig(cfg, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d of %d\n%s", name, last.Correct, last.Failed, last.Attempted, stderr.String())
	}
	return res
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string, nonZero bool) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		case nonZero && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the program")
	}
	endToEnd, perLayer := declared(t)
	res := map[string]result{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res[w.name] = smoke(t, w.name, false)
			checkMetrics(t, res[w.name].Metrics, endToEnd, true)
			traced := smoke(t, w.name, true)
			checkMetrics(t, traced.Metrics, perLayer, false)
			if traced.Metrics["core.get_calls_per_query"].Value != 1 {
				t.Errorf("traced run: %v cache gets per query, want 1", traced.Metrics["core.get_calls_per_query"].Value)
			}
		})
	}
	if t.Failed() {
		return
	}
	value := func(w, m string) float64 { return res[w].Metrics[m].Value }
	if a, b := value("zipf-http", "db_calls_per_query"), value("zipf-lib", "db_calls_per_query"); a != b {
		t.Errorf("db_calls_per_query: zipf-http %v, zipf-lib %v; the same stream must miss alike", a, b)
	}
	for _, m := range []string{"db_calls_per_query", "recall_at_k", "success_rate"} {
		if v := value("cold-text", m); v != 1 {
			t.Errorf("cold-text %s = %v, want 1", m, v)
		}
	}
}
