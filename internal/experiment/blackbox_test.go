// Black-box tests for the public experiment API, geobed-style: every
// assertion goes through exported identifiers only — spec construction,
// JSON round-tripping, the runner, its event stream, and the artifact
// store — never through package internals. If these pass, an external
// consumer of the API works.
package experiment_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nbhd/internal/backend"
	"nbhd/internal/experiment"
)

// demoSpec is a small but representative spec: two model backends, a
// regular sweep with options, a vote sweep derived from it, and an
// analysis step.
func demoSpec() experiment.Spec {
	return experiment.Spec{
		Name:        "demo",
		Description: "black-box demo",
		Dataset:     experiment.DatasetSpec{Coordinates: 4, Seed: 9},
		Backends: map[string]backend.Spec{
			"chatgpt": {Kind: "vlm", Model: "chatgpt-4o-mini"},
			"gemini":  {Kind: "vlm", Model: "gemini-1.5-pro"},
		},
		Sweeps: []experiment.SweepSpec{
			{Name: "models", Backends: []string{"chatgpt", "gemini"}, Options: experiment.OptionsSpec{Language: "Spanish", Temperature: 0.5}},
			{Name: "vote", VoteTopOf: "models", VoteTopK: 2},
		},
		Analyses: []experiment.AnalysisSpec{{Name: "tracts", Backend: "gemini", TractFeet: 4000}},
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := demoSpec()
	data, err := experiment.MarshalIndentSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := experiment.ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec of marshaled spec: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(spec, parsed) {
		t.Errorf("round trip changed the spec:\nbefore: %+v\nafter:  %+v", spec, parsed)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := experiment.ParseSpec([]byte(`{"name":"x","dataset":{"seed":1},"backends":{},"sweeps":[],"tyop":true}`))
	if err == nil {
		t.Fatal("ParseSpec accepted a spec with an unknown field")
	}
}

func TestValidateRejectsUnknownBackendName(t *testing.T) {
	spec := demoSpec()
	spec.Sweeps[0].Backends = []string{"chatgpt", "no-such-backend"}
	err := spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted a sweep referencing an undeclared backend")
	}
	if !strings.Contains(err.Error(), "no-such-backend") {
		t.Errorf("error does not name the unknown backend: %v", err)
	}
}

func TestValidateRejectsUnknownBackendKind(t *testing.T) {
	spec := demoSpec()
	spec.Backends["weird"] = backend.Spec{Kind: "quantum"}
	err := spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted an unregistered backend kind")
	}
	if !strings.Contains(err.Error(), "quantum") {
		t.Errorf("error does not name the unknown kind: %v", err)
	}
}

func TestValidateRejectsVoteOfVoteSweep(t *testing.T) {
	spec := demoSpec()
	spec.Sweeps = append(spec.Sweeps, experiment.SweepSpec{Name: "vote2", VoteTopOf: "vote", VoteTopK: 1})
	err := spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted a vote sweep over another vote sweep")
	}
	if !strings.Contains(err.Error(), "vote2") {
		t.Errorf("error does not name the offending sweep: %v", err)
	}
}

func TestValidateRejectsVoteOfLaterSweep(t *testing.T) {
	spec := demoSpec()
	spec.Sweeps[0], spec.Sweeps[1] = spec.Sweeps[1], spec.Sweeps[0]
	if spec.Validate() == nil {
		t.Fatal("Validate accepted a vote sweep referencing a later sweep")
	}
}

// TestEventOrdering pins the runner's event contract: sweeps in spec
// order, reports in backend order, analyses after sweeps — the same
// deterministic stream every run, despite the concurrency underneath.
func TestEventOrdering(t *testing.T) {
	var got []string
	res, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), demoSpec(), func(ev experiment.Event) {
		s := string(ev.Kind)
		if ev.Step != "" {
			s += " " + ev.Step
		}
		if ev.Backend != "" {
			s += " " + ev.Backend
		}
		got = append(got, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"run_started",
		"sweep_started models",
		"report_ready models chatgpt",
		"report_ready models gemini",
		"sweep_finished models",
		"sweep_started vote",
		"report_ready vote vote",
		"sweep_finished vote",
		"analysis_started tracts",
		"analysis_finished tracts",
		"run_finished",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("event stream:\ngot  %q\nwant %q", got, want)
	}
	// The result mirrors the stream: reports in backend order, members
	// ranked, analysis present.
	if res.Sweep("models").Reports[0].Backend != "chatgpt" || res.Sweep("models").Reports[1].Backend != "gemini" {
		t.Errorf("sweep reports out of backend order: %+v", res.Sweep("models").Reports)
	}
	if n := len(res.Sweep("vote").Reports[0].Members); n != 2 {
		t.Errorf("vote sweep has %d members, want 2", n)
	}
	if res.Analysis("tracts").Result == nil {
		t.Error("analysis result missing")
	}
}

// TestCancellationMidSweep cancels the run from its own event stream —
// as any consumer could — and asserts the runner stops with the
// context's error and closes the stream with RunFailed.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last experiment.Event
	_, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(ctx, demoSpec(), func(ev experiment.Event) {
		last = ev
		if ev.Kind == experiment.SweepStarted {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error is not context.Canceled: %v", err)
	}
	if last.Kind != experiment.RunFailed {
		t.Errorf("stream did not close with RunFailed, last event %q", last.Kind)
	}
	if last.Err == nil {
		t.Error("RunFailed event carries no error")
	}
}

// TestStoreRoundTrip saves a run and checks the artifact layout: a
// manifest plus a deterministic report file per sweep, re-savable to
// identical bytes.
func TestStoreRoundTrip(t *testing.T) {
	spec := demoSpec()
	spec.Analyses = nil
	res, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := experiment.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := store.Save("", res)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"manifest.json", "sweep-models.json", "sweep-vote.json"} {
		if _, err := os.Stat(filepath.Join(dir, file)); err != nil {
			t.Errorf("missing artifact %s: %v", file, err)
		}
	}
	first, err := os.ReadFile(filepath.Join(dir, "sweep-models.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save("", res); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(dir, "sweep-models.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("re-saving the same run changed the report bytes")
	}
}

// TestVoteSweepRanking pins the vote sweep's top-k policy: members are
// the source sweep's backends ranked by average accuracy, ties broken by
// backend name, k clamped to the source sweep's size, and a negative k
// rejected. The f5 golden run artifacts pin the paper's top-three
// committee itself.
func TestVoteSweepRanking(t *testing.T) {
	models := map[string]backend.Spec{
		"chatgpt": {Kind: "vlm", Model: "chatgpt-4o-mini"},
		"claude":  {Kind: "vlm", Model: "claude-3.7"},
		"gemini":  {Kind: "vlm", Model: "gemini-1.5-pro"},
		"grok":    {Kind: "vlm", Model: "grok-2"},
	}
	gemini := models["gemini"]
	cases := []struct {
		name     string
		backends map[string]backend.Spec
		source   []string
		k        int
		want     []string // committee in rank order; nil checks the ranking only
		wantErr  string
	}{
		{name: "top_three_of_four", backends: models, source: []string{"chatgpt", "claude", "gemini", "grok"}, k: 3},
		{name: "default_k_is_three", backends: models, source: []string{"grok", "gemini", "claude", "chatgpt"}, k: 0},
		{name: "tie_breaks_by_name", backends: map[string]backend.Spec{"b": gemini, "a": gemini}, source: []string{"b", "a"}, k: 1, want: []string{"a"}},
		{name: "k_larger_than_sweep_clamps", backends: map[string]backend.Spec{"chatgpt": models["chatgpt"], "gemini": gemini}, source: []string{"chatgpt", "gemini"}, k: 5},
		{name: "negative_k_rejected", backends: models, source: []string{"chatgpt", "gemini"}, k: -1, wantErr: "negative vote_top_k"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := experiment.Spec{
				Name:     "rank",
				Dataset:  experiment.DatasetSpec{Coordinates: 4, Seed: 9},
				Backends: tc.backends,
				Sweeps: []experiment.SweepSpec{
					{Name: "models", Backends: tc.source},
					{Name: "vote", VoteTopOf: "models", VoteTopK: tc.k},
				},
			}
			res, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), spec, nil)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Run err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			members := res.Sweep("vote").Reports[0].Members
			if tc.want != nil && !reflect.DeepEqual(members, tc.want) {
				t.Fatalf("committee = %q, want %q", members, tc.want)
			}
			k := tc.k
			if k == 0 {
				k = 3
			}
			if want := min(k, len(tc.source)); len(members) != want {
				t.Fatalf("committee = %q, want %d members", members, want)
			}
			src := res.Sweep("models")
			ranksBefore := func(a, b string) bool {
				_, _, _, accA := src.Report(a).Averages()
				_, _, _, accB := src.Report(b).Averages()
				if accA != accB {
					return accA > accB
				}
				return a < b
			}
			in := make(map[string]bool, len(members))
			for i, m := range members {
				in[m] = true
				if i > 0 && !ranksBefore(members[i-1], m) {
					t.Errorf("committee %q out of rank order at %q", members, m)
				}
			}
			last := members[len(members)-1]
			for _, name := range tc.source {
				if !in[name] && ranksBefore(name, last) {
					t.Errorf("%q ranks above committee member %q but was left out", name, last)
				}
			}
		})
	}
}
