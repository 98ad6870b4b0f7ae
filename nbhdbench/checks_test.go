package main

import (
	"encoding/json"
	"strings"
	"testing"

	"nbhd/internal/experiment"
	"nbhd/internal/metrics"
	"nbhd/internal/scene"
	"nbhd/internal/serve"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestClassifyCheckRejectsWrongAnswer(t *testing.T) {
	check := classifyCheck("f-1", []bool{true, false, true})
	ok := mustJSON(t, serve.ClassifyResponse{Frame: "f-1", Answers: []bool{true, false, true}})
	if err := check(ok); err != nil {
		t.Fatalf("matching answer rejected: %v", err)
	}
	for name, resp := range map[string]serve.ClassifyResponse{
		"flipped answer": {Frame: "f-1", Answers: []bool{true, true, true}},
		"short answer":   {Frame: "f-1", Answers: []bool{true, false}},
		"other frame":    {Frame: "f-2", Answers: []bool{true, false, true}},
	} {
		if err := check(mustJSON(t, resp)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := check([]byte("{")); err == nil {
		t.Error("malformed body accepted")
	}
}

func TestSpatialChecksRejectWrongAnswers(t *testing.T) {
	near := []serve.NearestResult{{Coordinate: serve.WireCoordinate{Lat: 1, Lng: 2}, County: "a", DistanceFeet: 0, Frames: []int{0, 1, 2, 3}}}
	nc := nearestCheck(near)
	if err := nc(mustJSON(t, serve.NearestResponse{Results: near})); err != nil {
		t.Fatalf("matching nearest rejected: %v", err)
	}
	wrong := []serve.NearestResult{near[0]}
	wrong[0].DistanceFeet = 1
	if err := nc(mustJSON(t, serve.NearestResponse{Results: wrong})); err == nil {
		t.Error("nearest with a wrong distance accepted")
	}

	locs := []serve.LocationResult{{County: "a", Present: []string{"sidewalk"}}}
	counts := map[string]int{"sidewalk": 1}
	hc := hoodCheck(locs, counts, false)
	if err := hc(mustJSON(t, serve.NeighborhoodResponse{Locations: locs, Counts: counts})); err != nil {
		t.Fatalf("matching neighborhood rejected: %v", err)
	}
	if err := hc(mustJSON(t, serve.NeighborhoodResponse{Locations: locs, Counts: map[string]int{"sidewalk": 2}})); err == nil {
		t.Error("neighborhood with wrong counts accepted")
	}
	if err := hc(mustJSON(t, serve.NeighborhoodResponse{Locations: locs, Counts: counts, Truncated: true})); err == nil {
		t.Error("neighborhood with wrong truncation accepted")
	}
}

// report builds a class report whose macro accuracy is right/n on every
// indicator.
func report(right, n int) *metrics.ClassReport {
	var r metrics.ClassReport
	for i := 0; i < n; i++ {
		var pred, truth [scene.NumIndicators]bool
		for k := range pred {
			pred[k] = i < right
			truth[k] = true
		}
		r.AddVector(pred, truth)
	}
	return &r
}

func TestEnvelopeCheckFailsCellBelowFloor(t *testing.T) {
	res := &experiment.Result{Sweeps: []experiment.SweepResult{
		{Name: experiment.RobustnessSweepName("clean"), Reports: []experiment.BackendReport{
			{Backend: "cnn", Report: report(9, 10)},
			{Backend: "vlm", Report: report(5, 10)},
		}},
	}}
	accs, failed := envelopeCheck("grid", res)
	if len(accs) != 2 || accs[0] != 0.9 || accs[1] != 0.5 {
		t.Fatalf("accuracies = %v, want [0.9 0.5]", accs)
	}
	if len(failed) != 1 || !strings.Contains(failed[0], "grid/clean/vlm") {
		t.Fatalf("failures = %v, want the vlm cell alone", failed)
	}
}
