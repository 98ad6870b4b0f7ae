package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nbhd/internal/analysis"
	"nbhd/internal/backend"
	"nbhd/internal/dataset"
	"nbhd/internal/ensemble"
	"nbhd/internal/metrics"
	"nbhd/internal/render"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

// EvalConfig tunes the concurrent evaluator.
type EvalConfig struct {
	// Workers is the classification fan-out per sweep; zero defaults to
	// GOMAXPROCS.
	Workers int
}

// Evaluator sweeps classifier backends over the pipeline's corpus
// concurrently. Every backend family — builtin VLMs, committees, remote
// HTTP models, the YOLO detector, the CNN baseline — flows through the
// same path: frames come from the shared render cache at the backend's
// resolution, perception features come from the shared perception cache
// when the backend consumes them, batches fan out across a worker pool
// shaped by the backend's capability hints, and per-worker partial
// ClassReports are merged at the end. Results are bit-identical to a
// serial sweep: answers are deterministic in (backend, frame content,
// request), renders are deterministic in the scene, and confusion
// counts are order-independent under merge.
type Evaluator struct {
	pipe    *Pipeline
	workers int
}

// NewEvaluator builds an evaluator over the pipeline's shared caches.
func (p *Pipeline) NewEvaluator(cfg EvalConfig) *Evaluator {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Evaluator{pipe: p, workers: w}
}

// featEntry dedupes concurrent perception of one image.
type featEntry struct {
	once  sync.Once
	feats vlm.Features
	err   error
}

// features returns the cached perception features for a rendered frame,
// perceiving it exactly once across all concurrent sweeps.
func (p *Pipeline) features(img *render.Image) (vlm.Features, error) {
	v, _ := p.featCache.LoadOrStore(img, &featEntry{})
	e := v.(*featEntry)
	e.once.Do(func() { e.feats, e.err = vlm.Perceive(img) })
	return e.feats, e.err
}

// renderSizeFor resolves the resolution a backend's frames render at:
// its capability hint, or the pipeline's LLM render size.
func (p *Pipeline) renderSizeFor(caps backend.Capabilities) int {
	if caps.RenderSize > 0 {
		return caps.RenderSize
	}
	return p.cfg.LLMRenderSize
}

// frameItems builds backend items for corpus frames [start,end) from the
// shared render and perception caches at the given resolution and capture
// condition — the one batch-assembly path every sweep (classification and
// neighborhood analysis alike) goes through.
func (p *Pipeline) frameItems(start, end, size int, cond string, wantFeats bool) ([]backend.Item, error) {
	items := make([]backend.Item, 0, end-start)
	for i := start; i < end; i++ {
		ex, err := p.cache.CondExample(i, size, cond)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		item := backend.Item{ID: ex.ID, Image: ex.Image}
		if wantFeats {
			feats, err := p.features(ex.Image)
			if err != nil {
				return nil, fmt.Errorf("core: perceive %s: %w", ex.ID, err)
			}
			item.Feats = &feats
		}
		items = append(items, item)
	}
	return items, nil
}

// classifySemFor returns the semaphore bounding concurrent Classify
// calls for a backend, or nil when the worker count already respects the
// backend's limit. Workers above the cap still render and perceive in
// parallel (the caches' main win), queuing only for classification.
func classifySemFor(caps backend.Capabilities, workers int) chan struct{} {
	if caps.MaxConcurrency > 0 && caps.MaxConcurrency < workers {
		return make(chan struct{}, caps.MaxConcurrency)
	}
	return nil
}

// EvaluateBackend sweeps any classifier backend over the corpus with the
// evaluator's worker pool. The backend's capability hints shape the
// sweep: frames render (once, cached) at its preferred resolution,
// perception features are precomputed only when it consumes them,
// classification happens in batches of its preferred size, and
// concurrent Classify calls are bounded by its maximum concurrency —
// rendering and perception stay fully parallel even for single-file
// backends. The context cancels the sweep: the first error (or
// cancellation) stops all workers and is returned.
func (e *Evaluator) EvaluateBackend(ctx context.Context, b backend.Backend, opts LLMOptions) (*metrics.ClassReport, error) {
	p := e.pipe
	if !dataset.ValidCondition(opts.Condition) {
		return nil, fmt.Errorf("core: unknown capture condition %q (have %v)", opts.Condition, dataset.Conditions())
	}
	n := p.Study.Len()
	if opts.FrameLimit > 0 && opts.FrameLimit < n {
		n = opts.FrameLimit
	}
	batch := max(b.Capabilities().PreferredBatch, 1)
	partials := make([]metrics.ClassReport, e.workers)
	err := e.sweep(ctx, b, opts.Condition, opts.backendOptions(), (n+batch-1)/batch,
		func(job int) (int, int) {
			start := job * batch
			return start, min(start+batch, n)
		},
		func(worker, _, start int, answers [][]bool) error {
			for k, a := range answers {
				var pred [scene.NumIndicators]bool
				copy(pred[:], a)
				partials[worker].AddVector(pred, p.Study.Frames[start+k].Scene.Presence())
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	var report metrics.ClassReport
	for w := range partials {
		report.Merge(&partials[w])
	}
	return &report, nil
}

// EvaluateBackendSet evaluates several backends concurrently over the
// shared caches and returns their reports in input order. The
// evaluator's worker budget is divided among the sweeps so the total
// fan-out stays at ~e.workers rather than backends × workers. The first
// backend error cancels the others.
func (e *Evaluator) EvaluateBackendSet(ctx context.Context, backends []backend.Backend, opts LLMOptions) ([]*metrics.ClassReport, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("core: no backends to evaluate")
	}
	perSweep := e.workers / len(backends)
	if perSweep < 1 {
		perSweep = 1
	}
	sub := &Evaluator{pipe: e.pipe, workers: perSweep}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	reports := make([]*metrics.ClassReport, len(backends))
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for i := range backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := sub.EvaluateBackend(ctx, backends[i], opts)
			if err != nil {
				errs[i] = fmt.Errorf("core: %s: %w", backends[i].Name(), err)
				cancel()
				return
			}
			reports[i] = rep
		}(i)
	}
	wg.Wait()
	// Report errors in input order so failures are deterministic even
	// when several backends fail at once — but skip the secondary
	// cancellations our own cancel() induced in sibling sweeps, so the
	// root cause isn't masked.
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return nil, err
	}
	if canceled != nil {
		return nil, canceled
	}
	return reports, nil
}

// AnalyzeNeighborhood runs a backend over the whole corpus, fuses the
// four headings of each coordinate with any-vote fusion, and produces
// tract-level environment scores and health-outcome associations.
// Coordinates fan out across the worker pool, one backend batch per
// coordinate; results are bit-identical to a serial sweep because each
// fused location lands at its coordinate's index regardless of
// completion order. The context cancels mid-sweep.
func (e *Evaluator) AnalyzeNeighborhood(ctx context.Context, b backend.Backend, tractFeet float64) (*NeighborhoodResult, error) {
	p := e.pipe
	locations := make([]analysis.LocationProfile, p.Study.Len()/FramesPerCoordinate)
	err := e.sweep(ctx, b, "", LLMOptions{}.backendOptions(), len(locations),
		func(g int) (int, int) { return g * FramesPerCoordinate, (g + 1) * FramesPerCoordinate },
		func(_, g, start int, answers [][]bool) error {
			perHeading := make([][scene.NumIndicators]bool, len(answers))
			for k, a := range answers {
				copy(perHeading[k][:], a)
			}
			fused, err := ensemble.FuseHeadings(perHeading, ensemble.FuseAny)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			fr := p.Study.Frames[start]
			locations[g] = analysis.LocationProfile{
				Coordinate: fr.Scene.Point.Coordinate,
				County:     fr.County,
				Presence:   fused,
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return p.neighborhoodAnalysis(locations, tractFeet)
}

// sweep is the worker pool under every corpus sweep. Jobs [0,nJobs) fan
// out across the evaluator's workers; job j classifies the corpus frames
// [start,end) that span(j) returns as one backend batch, built from the
// shared render and perception caches at the backend's resolution under
// capture condition cond. Every batch must come back with one answer
// vector per frame, each covering every requested indicator, or the
// sweep fails naming the backend. done receives each job's answers with
// the index of the worker that ran it (below e.workers), so callers can
// accumulate per-worker partials without locks. The first error — from
// a render, the backend, the shape check or done — or the context's
// cancellation stops all workers and is returned.
func (e *Evaluator) sweep(ctx context.Context, b backend.Backend, cond string, options backend.Options, nJobs int, span func(job int) (start, end int), done func(worker, job, start int, answers [][]bool) error) error {
	p := e.pipe
	caps := b.Capabilities()
	size := p.renderSizeFor(caps)
	workers := max(min(e.workers, nJobs), 1)
	classifySem := classifySemFor(caps, workers)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := func(worker, job int) error {
		start, end := span(job)
		items, err := p.frameItems(start, end, size, cond, caps.PerceivedFeatures)
		if err != nil {
			return err
		}
		if classifySem != nil {
			select {
			case classifySem <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		res, err := b.Classify(ctx, backend.BatchRequest{Items: items, Options: options})
		if classifySem != nil {
			<-classifySem
		}
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if len(res.Answers) != len(items) {
			return fmt.Errorf("core: backend %s returned %d answer vectors for %d items", b.Name(), len(res.Answers), len(items))
		}
		for k := range items {
			if len(res.Answers[k]) != len(options.Indicators) {
				return fmt.Errorf("core: backend %s answered %d indicators for %s, want %d", b.Name(), len(res.Answers[k]), items[k].ID, len(options.Indicators))
			}
		}
		return done(worker, job, start, res.Answers)
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     atomic.Int64
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				job := int(next.Add(1))
				if job >= nJobs {
					return
				}
				if err := run(w, job); err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
