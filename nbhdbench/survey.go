package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/classify"
	"nbhd/internal/core"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/serve"
)

const (
	// surveyCoords is the served corpus: 1200 frames, more than the
	// gateway's default 1024-entry result cache, so cycling the corpus
	// in order never finds a frame still cached.
	surveyCoords = 300
	// The CNN trains during set-up on a small corpus, so set-up can be
	// repeated. The training corpus has a fixed seed, so the model, its
	// training time and its accuracy are the same for every workload
	// seed; the workload seed generates the served corpus.
	surveyTrainCoords = 40
	surveyTrainEpochs = 3
	surveyTrainSeed   = 0
)

// The quality corpus mean_accuracy is scored on. Its seed is fixed, and
// differs from the training corpus's, so the quality guard reads the
// same for every workload seed and moves only when a backend's answers
// change.
const (
	qualityCoords = 100
	qualitySeed   = 1
)

var surveyShape = gatewayShape{
	sweepLen:     surveyCoords * core.FramesPerCoordinate,
	closedSweeps: 6,
	directEvery:  1,
	inflight:     32,
	ladder:       ladderRates(200, 1.07, 32),
	limitMS:      50,
	refRate:      250, // 40% of capacity: the median passing ladder rung was 632/s on a 2-vCPU guest
	maxInflight:  192,
}

// setupSurvey builds the survey gateway: corpus, CNN training, frame
// pre-render, the direct-Classify oracle, the gateway and one warm-up
// sweep.
func setupSurvey(ctx context.Context, seed int64) (*gatewayEnv, error) {
	pipe, err := core.NewPipeline(core.Config{Coordinates: surveyCoords, Seed: seed})
	if err != nil {
		return nil, err
	}
	trainPipe, err := core.NewPipeline(core.Config{Coordinates: surveyTrainCoords, Seed: surveyTrainSeed})
	if err != nil {
		return nil, err
	}
	trainStart := time.Now()
	model, err := trainPipe.TrainSceneCNN(core.BaselineOptions{Epochs: surveyTrainEpochs})
	if err != nil {
		return nil, err
	}
	train := time.Since(trainStart)
	cnn, err := backend.NewCNN(model, 0)
	if err != nil {
		return nil, err
	}

	items, _, err := corpusItems(pipe, model.InputSize())
	if err != nil {
		return nil, err
	}
	n := len(items)
	inds := scene.Indicators()
	opts := backend.Options{Indicators: inds[:]}
	answers, err := classifyAll(ctx, cnn, items, opts, 16)
	if err != nil {
		return nil, fmt.Errorf("survey oracle: %w", err)
	}

	timed := newTimedBackend(cnn)
	srv, err := serve.New(ctx, serve.Config{}, serve.Options{
		Frames:   pipe.RenderCache(),
		Backends: map[string]backend.Backend{"cnn": timed},
	})
	if err != nil {
		return nil, err
	}
	gw, err := startGateway(srv.Handler())
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	seq := make([]*query, n)
	for i := range seq {
		idx := i
		body, err := json.Marshal(serve.ClassifyRequest{Backend: "cnn", Frame: serve.FrameRef{Index: &idx}})
		if err != nil {
			return nil, err
		}
		id := items[i].ID
		seq[i] = &query{Method: http.MethodPost, Path: "/v1/classify", Body: body, Key: id, Frame: id, Check: classifyCheck(id, answers[i])}
	}
	c := newClient(gw.url)
	env := &gatewayEnv{
		gen:      &generator{c: c, seq: seq},
		servers:  []*serve.Server{srv},
		backends: []*timedBackend{timed},
		close: func() {
			c.close()
			gw.close()
			_ = srv.Close()
		},
		evalSweep: directSweep(cnn, items, opts, answers),
		quality: func(ctx context.Context) (float64, error) {
			return qualityScore(ctx, cnn, model.InputSize())
		},
		check: func(before, after counters) string {
			if rd := diffRoutes(before.routes, after.routes); rd.CacheHits != 0 {
				return fmt.Sprintf("survey answered %d requests from the result cache; its corpus must bypass it", rd.CacheHits)
			}
			return ""
		},
	}
	env.replay = func(tr *tracer, m map[string]float64) error {
		return replayPredict(tr, m, model, items)
	}
	env.warmup = env.gen.closedLoop(ctx, "warmup", n, surveyShape.inflight)
	env.trainSweep = train + env.warmup.Wall
	return env, ctx.Err()
}

// classifyAll answers every item with direct Classify calls in batches
// of size, two batches at a time: the oracle every served answer must
// match.
func classifyAll(ctx context.Context, b backend.Backend, items []backend.Item, opts backend.Options, size int) ([][]bool, error) {
	answers := make([][]bool, len(items))
	errs := make([]error, 2) // one per worker; worker w takes every other batch
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w * size; lo < len(items) && errs[w] == nil; lo += len(errs) * size {
				hi := min(lo+size, len(items))
				res, err := b.Classify(ctx, backend.BatchRequest{Items: items[lo:hi], Options: opts})
				if err == nil && len(res.Answers) != hi-lo {
					err = fmt.Errorf("%d answers for %d items", len(res.Answers), hi-lo)
				}
				if errs[w] = err; err == nil {
					copy(answers[lo:hi], res.Answers)
				}
			}
		}()
	}
	wg.Wait()
	return answers, errors.Join(errs...)
}

// corpusItems pre-renders every frame of a pipeline's corpus at size,
// with the frames' ground truth.
func corpusItems(pipe *core.Pipeline, size int) ([]backend.Item, [][scene.NumIndicators]bool, error) {
	n := len(pipe.Study.Frames)
	items := make([]backend.Item, n)
	truth := make([][scene.NumIndicators]bool, n)
	for i := range items {
		ex, err := pipe.RenderCache().Example(i, size)
		if err != nil {
			return nil, nil, err
		}
		items[i] = backend.Item{ID: ex.ID, Image: ex.Image}
		truth[i] = ex.Presence()
	}
	return items, truth, nil
}

// directSweep returns a gateway workload's evaluation sweep: every
// corpus item classified with direct Classify calls on b, each answer
// held to the oracle's.
func directSweep(b backend.Backend, items []backend.Item, opts backend.Options, oracle [][]bool) func(context.Context) (int, int, error) {
	return func(ctx context.Context) (int, int, error) {
		answers, err := classifyAll(ctx, b, items, opts, 16)
		if err != nil {
			return 0, 0, err
		}
		wrong := 0
		for i, a := range answers {
			if !equalBools(a, oracle[i]) {
				wrong++
			}
		}
		return len(items), wrong, nil
	}
}

// qualityScore renders the quality corpus at size, classifies it with
// direct Classify calls on b, and returns the share of (frame,
// indicator) answers that match ground truth.
func qualityScore(ctx context.Context, b backend.Backend, size int) (float64, error) {
	pipe, err := core.NewPipeline(core.Config{Coordinates: qualityCoords, Seed: qualitySeed})
	if err != nil {
		return 0, err
	}
	items, truth, err := corpusItems(pipe, size)
	if err != nil {
		return 0, err
	}
	inds := scene.Indicators()
	answers, err := classifyAll(ctx, b, items, backend.Options{Indicators: inds[:]}, 16)
	if err != nil {
		return 0, err
	}
	return accuracy(answers, truth), nil
}

// classifyCheck validates a /v1/classify body against the oracle.
func classifyCheck(frameID string, want []bool) func([]byte) error {
	return func(body []byte) error {
		var resp serve.ClassifyResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Frame != frameID {
			return fmt.Errorf("answered frame %q, asked %q", resp.Frame, frameID)
		}
		if !equalBools(resp.Answers, want) {
			return fmt.Errorf("frame %s: answers %v, oracle %v", frameID, resp.Answers, want)
		}
		return nil
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// accuracy is the share of (frame, indicator) answers that match the
// frames' ground truth.
func accuracy(answers [][]bool, truth [][scene.NumIndicators]bool) float64 {
	var right, total int
	for i, ans := range answers {
		for k, a := range ans {
			total++
			if a == truth[i][k] {
				right++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(right) / float64(total)
}

// predictBatches are the batch widths nn.predict_ms_per_item is timed
// at: the coalescer's sizes from a lone request up to the CNN's
// preferred batch.
var predictBatches = []int{1, 4, 8, 16}

// replayPredict times classify.Model.PredictBatch outside the gateway
// at each width in predictBatches, over the survey's own frames.
func replayPredict(tr *tracer, m map[string]float64, model *classify.Model, items []backend.Item) error {
	for _, b := range predictBatches {
		var perItem []float64
		start := time.Now()
		err := tr.phase(fmt.Sprintf("replay.nn.predict.b%d", b), func() error {
			for lo := 0; time.Since(start) < 250*time.Millisecond || len(perItem) < 5; lo = (lo + b) % (len(items) - b) {
				imgs := make([]*render.Image, b)
				for i := range imgs {
					imgs[i] = items[lo+i].Image
				}
				t := time.Now()
				if _, err := model.PredictBatch(imgs); err != nil {
					return err
				}
				perItem = append(perItem, ms(time.Since(t))/float64(b))
			}
			return nil
		})
		if err != nil {
			return err
		}
		m[fmt.Sprintf("nn.predict_ms_per_item.b%d", b)] = median(perItem)
	}
	return nil
}
