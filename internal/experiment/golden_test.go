package experiment_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nbhd/internal/experiment"
)

// goldenRuns are the paper runs whose saved artifacts are pinned as
// committed bytes under testdata/golden/<name>/: the Fig. 5 per-model
// sweep and its top-three vote, the committee-driven neighborhood
// analysis, and a reduced robustness matrix (every backend kind under
// every capture condition, supervised kinds trained for one epoch).
var goldenRuns = []struct {
	name string
	cfg  experiment.BuiltinConfig
}{
	{"f5", experiment.BuiltinConfig{Coordinates: 10, Seed: 5}},
	{"neighborhood", experiment.BuiltinConfig{Coordinates: 8, Seed: 5}},
	{"robustness", experiment.BuiltinConfig{Coordinates: 4, Seed: 5, TrainEpochs: 1}},
}

// TestRunArtifactsMatchGolden runs each golden spec through the runner,
// saves it with Store.Save, and compares every sweep and analysis file
// byte for byte against the committed copy. manifest.json is left out:
// it carries the run's wall-clock timestamps. Any drift in a confusion
// cell, a derived metric, committee selection, the analysis chain or
// the encoding fails here.
func TestRunArtifactsMatchGolden(t *testing.T) {
	for _, tc := range goldenRuns {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := experiment.Builtin(tc.name, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			store, err := experiment.NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			dir, err := store.Save("", res)
			if err != nil {
				t.Fatal(err)
			}

			goldenDir := filepath.Join("testdata", "golden", tc.name)
			want, err := experiment.ListRunArtifacts(goldenDir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := experiment.ListRunArtifacts(dir)
			if err != nil {
				t.Fatal(err)
			}
			got = withoutManifest(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("artifact files = %q, golden has %q", got, want)
			}
			for _, name := range want {
				wantBytes, err := os.ReadFile(filepath.Join(goldenDir, name))
				if err != nil {
					t.Fatal(err)
				}
				gotBytes, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Errorf("%s diverged from the golden copy:\ngot:\n%s\ngolden:\n%s", name, gotBytes, wantBytes)
				}
			}
		})
	}
}

// withoutManifest drops manifest.json from a run's artifact list.
func withoutManifest(files []string) []string {
	out := files[:0]
	for _, f := range files {
		if f != "manifest.json" {
			out = append(out, f)
		}
	}
	return out
}
