package spec

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"valois/bench/loadgen"
)

// BENCHMARK.json is what the driver reads; the lists in this package are
// what the benchmark prints. They must not drift apart.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []Metric `json:"end_to_end"`
		PerLayer   []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end is %v, the code has %v", doc.EndToEnd, EndToEnd)
	}
	if want := append(slices.Clone(WireLayer), TraceLayer...); !slices.Equal(doc.PerLayer, want) {
		t.Errorf("per_layer is %v, the code has %v", doc.PerLayer, want)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range loadgen.Workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads are %v, the code has %v", names, want)
	}
	if !slices.Equal(doc.Paths, []string{"bench"}) || !slices.Equal(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	setup := EndToEnd[len(EndToEnd)-1]
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup.Bound {
			t.Errorf("%s: bound %v outside (0, 0.25] or above setup_s's", m.Name, m.Bound)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("last end-to-end metric is %+v, want setup_s", setup)
	}
}
