package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nbhd/internal/core"
	"nbhd/internal/dataset"
	"nbhd/internal/experiment"
	"nbhd/internal/render"
	"nbhd/internal/tensor"
	"nbhd/internal/vlm"
	"nbhd/internal/world"
)

// The study runs the robustness matrix in the configuration the
// accuracy envelope is calibrated in (experiment/envelope.go): dataset
// seed 0, an 8-coordinate corpus, one training epoch. Only there is
// every cell's floor a contract; at other dataset seeds cells of this
// small corpus fall below their floors. The benchmark's seed therefore
// orders the world families instead of reseeding the corpus.
const (
	studyCoords = 8
	studyEpochs = 1
	studySeed   = 0
)

// studyEnv is one set-up instance of the study workload.
type studyEnv struct {
	store    *experiment.Store
	families []string
	specs    []experiment.Spec
}

// studyFamilies orders the world families by the benchmark seed.
func studyFamilies(seed int64) []string {
	names := world.Names()
	out := make([]string, len(names))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(names)) {
		out[i] = names[j]
	}
	return out
}

// setupStudy opens the artifact store, builds one robustness spec per
// world family, and runs the first family's spec once, unsaved, so the
// first measured job pays no first-use cost of the process.
func setupStudy(ctx context.Context, seed int64, dir string) (*studyEnv, error) {
	store, err := experiment.NewStore(dir)
	if err != nil {
		return nil, err
	}
	env := &studyEnv{store: store, families: studyFamilies(seed)}
	for _, fam := range env.families {
		spec, err := experiment.Builtin("robustness:"+fam, experiment.BuiltinConfig{Coordinates: studyCoords, Seed: studySeed, TrainEpochs: studyEpochs})
		if err != nil {
			return nil, err
		}
		env.specs = append(env.specs, spec)
	}
	if _, err := experiment.NewRunner(experiment.RunnerConfig{}).Run(ctx, env.specs[0], nil); err != nil {
		return nil, err
	}
	return env, nil
}

// studyJob is one measured job: the four families' runs, each saved.
type studyJob struct {
	wall    time.Duration
	runs    []time.Duration      // Run + Save per family
	sweeps  map[string][]float64 // seconds per condition
	first   []float64            // the first sweep of each run, which trains
	later   []float64            // every other sweep
	saves   []float64
	cells   int
	accSum  float64
	failed  []string
	digests []string
}

// runJob runs every family's spec through experiment.Runner, saves the
// artifacts and checks each cell against its envelope floor.
func (env *studyEnv) runJob(ctx context.Context, tr *tracer) (*studyJob, error) {
	job := &studyJob{sweeps: make(map[string][]float64)}
	start := time.Now()
	err := tr.phase("study.job", func() error {
		for i, spec := range env.specs {
			runStart := time.Now()
			var res *experiment.Result
			err := tr.phase("experiment.run", func() error {
				var sweepStart time.Time
				sweepIdx := 0
				var err error
				res, err = experiment.NewRunner(experiment.RunnerConfig{}).Run(ctx, spec, func(ev experiment.Event) {
					switch ev.Kind {
					case experiment.SweepStarted:
						sweepStart = time.Now()
					case experiment.SweepFinished:
						d := time.Since(sweepStart)
						tr.interval("experiment.sweep "+ev.Step, tr.parent(), sweepStart)
						cond := strings.TrimPrefix(ev.Step, "cond:")
						job.sweeps[cond] = append(job.sweeps[cond], d.Seconds())
						if sweepIdx == 0 {
							job.first = append(job.first, d.Seconds())
						} else {
							job.later = append(job.later, d.Seconds())
						}
						sweepIdx++
					}
				})
				return err
			})
			if err != nil {
				return err
			}
			saveStart := time.Now()
			dir, err := env.store.Save(env.families[i], res)
			if err != nil {
				return err
			}
			tr.interval("experiment.save", tr.parent(), saveStart)
			job.saves = append(job.saves, time.Since(saveStart).Seconds())
			job.runs = append(job.runs, time.Since(runStart))
			digest, err := artifactDigest(dir)
			if err != nil {
				return err
			}
			job.digests = append(job.digests, digest)
			accs, failed := envelopeCheck(env.families[i], res)
			job.cells += len(accs)
			for _, a := range accs {
				job.accSum += a
			}
			job.failed = append(job.failed, failed...)
		}
		return nil
	})
	job.wall = time.Since(start)
	return job, err
}

// envelopeCheck returns every cell's accuracy and a description of each
// cell below its experiment.EnvelopeFloor.
func envelopeCheck(family string, res *experiment.Result) (accs []float64, failed []string) {
	for _, sw := range res.Sweeps {
		cond := strings.TrimPrefix(sw.Name, "cond:")
		for _, rep := range sw.Reports {
			_, _, _, acc := rep.Report.Averages()
			accs = append(accs, acc)
			if floor := experiment.EnvelopeFloor(rep.Backend, cond); acc < floor {
				failed = append(failed, fmt.Sprintf("%s/%s/%s accuracy %.4f below envelope floor %.2f", family, cond, rep.Backend, acc, floor))
			}
		}
	}
	return accs, failed
}

// artifactDigest hashes a saved run's report files. The manifest is
// left out: it records wall-clock start and finish times.
func artifactDigest(dir string) (string, error) {
	files, err := experiment.ListRunArtifacts(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, f := range files {
		if f == "manifest.json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// replayStudyLayers re-runs the study's per-frame work outside the
// runner, cold, on the families' corpora: rendering at both model
// resolutions, applying each capture condition, and perception.
func replayStudyLayers(ctx context.Context, tr *tracer, m map[string]float64, families []string) error {
	var renders, conds, perceives []float64
	err := tr.phase("replay.study", func() error {
		for _, fam := range families {
			pipe, err := core.NewPipeline(core.Config{Coordinates: studyCoords, Seed: studySeed, Morphology: fam})
			if err != nil {
				return err
			}
			for _, fr := range pipe.Study.Frames {
				if err := ctx.Err(); err != nil {
					return err
				}
				var img96 *render.Image
				for _, size := range []int{64, 96} {
					t := time.Now()
					img, err := render.Render(fr.Scene, render.Config{Width: size, Height: size})
					if err != nil {
						return err
					}
					renders = append(renders, ms(time.Since(t)))
					img96 = img
				}
				for _, cond := range dataset.Conditions() {
					if cond == dataset.ConditionClean {
						continue
					}
					t := time.Now()
					if _, err := dataset.ApplyCondition(cond, img96, dataset.ConditionSeed(studySeed, fr.Scene.ID, cond)); err != nil {
						return err
					}
					conds = append(conds, ms(time.Since(t)))
				}
				t := time.Now()
				if _, err := vlm.Perceive(img96); err != nil {
					return err
				}
				perceives = append(perceives, ms(time.Since(t)))
			}
		}
		return nil
	})
	m["render.ms_per_frame"] = median(renders)
	m["dataset.condition_ms_per_frame"] = median(conds)
	m["vlm.perceive_ms_per_frame"] = median(perceives)
	return err
}

// studyResult reduces measured jobs to the study's metrics.
func studyResult(jobs []*studyJob, before, after tensor.ComputeStats, e2e, layers map[string]float64) {
	// Every sweep classifies each corpus frame once per backend kind.
	perSweep := studyCoords * core.FramesPerCoordinate * len(experiment.RobustnessKinds())
	var runs, first, later, saves, rates []float64
	sweeps := make(map[string][]float64)
	for _, j := range jobs {
		var busy time.Duration
		for _, r := range j.runs {
			runs = append(runs, ms(r))
			busy += r
		}
		rates = append(rates, float64((len(j.first)+len(j.later))*perSweep)/busy.Seconds())
		first = append(first, j.first...)
		later = append(later, j.later...)
		saves = append(saves, j.saves...)
		for c, s := range j.sweeps {
			sweeps[c] = append(sweeps[c], s...)
		}
	}
	rs := summarize(runs)
	e2e["train_sweep_s"] = median(first)
	e2e["eval_sweep_p50_s"] = median(later)
	// Throughput is that of whole jobs: every frame classification
	// over the time spent in Run and Save, training and cold rendering
	// included. The median job counts.
	e2e["throughput_rps"] = median(rates)
	e2e["mean_accuracy"] = jobs[0].accSum / float64(jobs[0].cells)
	e2e["p50_ms"] = rs.P50
	layers["loadgen.p99_ms"] = rs.P99
	layers["loadgen.max_rate_rps"] = 1000 / mean(runs)

	for c, s := range sweeps {
		layers["experiment.sweep_s."+c] = median(s)
	}
	layers["experiment.save_s"] = median(saves)
	// The GEMM count includes the first sweeps' training.
	if n := (len(first) + len(later)) * perSweep; n > 0 {
		layers["tensor.gemm_calls_per_item"] = float64(after.GEMMCalls-before.GEMMCalls) / float64(n)
	}
	tensorLayers(layers, before, after)
}
