package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkManifestMatchesMetrics keeps BENCHMARK.json and the
// metrics this program prints in step: same names, same units, same
// order, every name valid.
func TestBenchmarkManifestMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, w := range manifest.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(manifest.Workloads), len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program prints %s [%s]", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
			if !validMetricName(d.name) {
				t.Errorf("%s: invalid metric name %q", kind, d.name)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, e2eMetrics)
	check("per_layer", manifest.PerLayer, layerMetrics)
}
