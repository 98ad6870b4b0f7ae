// Command nbhdbench is the repository's benchmark. It drives the
// system only through its public functions, times those calls from
// outside, checks every answer, and prints one JSON result line.
//
//	nbhdbench --workload survey|map|study --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run records spans around each layer call, writes them
// to <work-dir>/traces, and the result carries the per-layer metrics.
// A wrong answer, a study cell below its accuracy envelope, or a broken
// bypass property makes the run exit non-zero. README.md lists every
// metric, its unit and the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"nbhd/internal/tensor"
)

// metricDef is a metric's name and unit as the result line prints them.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every --trace 0 run, in this order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"mem_peak_mb", "MB"},
	{"train_sweep_s", "s"},
	{"eval_sweep_p50_s", "s"},
	{"mean_accuracy", "ratio"},
}

// layerMetrics are printed by every --trace 1 run. A layer the workload
// does not exercise reads 0.
var layerMetrics = []metricDef{
	{"serve.mean_batch", "items"},
	{"serve.wait_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.dedup_ratio", "ratio"},
	{"http.overhead_ms", "ms"},
	{"backend.ms_per_item", "ms"},
	{"backend.items_per_call", "items"},
	{"backend.busy_share", "ratio"},
	{"tensor.gemm_calls_per_item", "count"},
	{"tensor.qgemm_calls", "count"},
	{"tensor.panel_reuse_ratio", "ratio"},
	{"nn.predict_ms_per_item.b1", "ms"},
	{"nn.predict_ms_per_item.b4", "ms"},
	{"nn.predict_ms_per_item.b8", "ms"},
	{"nn.predict_ms_per_item.b16", "ms"},
	{"fleet.forward_imbalance", "ratio"},
	{"fleet.spill_ratio", "ratio"},
	{"fleet.failovers", "count"},
	{"geoindex.radius_us", "us"},
	{"geoindex.knearest_us", "us"},
	{"render.ms_per_frame", "ms"},
	{"dataset.condition_ms_per_frame", "ms"},
	{"vlm.perceive_ms_per_frame", "ms"},
	{"experiment.sweep_s.clean", "s"},
	{"experiment.sweep_s.night", "s"},
	{"experiment.sweep_s.noise", "s"},
	{"experiment.sweep_s.occlusion", "s"},
	{"experiment.save_s", "s"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.max_rate_rps", "1/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.failed_ratio", "ratio"},
	{"trace.overhead_wall_s", "s"},
	{"trace.overhead_p50_ms", "ms"},
}

// setupReps is how many times a --trace 0 run sets its workload up;
// setup_s is the median.
const setupReps = 3

// resultCacheSize is the gateway's default result-cache capacity, the
// reach workload.repeat_share is measured against.
const resultCacheSize = 1024

type config struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	workDir  string
}

// outcome is what a workload run hands back to main.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string // correctness failures; any one fails the run
	lines     []string // human-readable report
	tr        *tracer
	// repeatShare is the share of requests that repeat one made within
	// the reach of the gateway's result cache.
	repeatShare float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) count(p *phaseStats) {
	o.attempted += p.Sent
	o.failed += p.Failed
	if p.Failed > 0 {
		o.problems = append(o.problems, fmt.Sprintf("phase %s: %d of %d requests failed", p.Name, p.Failed, p.Sent))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"survey": func(ctx context.Context, cfg config) (*outcome, error) {
		return runGateway(ctx, cfg, surveyShape, "cnn", setupSurvey)
	},
	"map": func(ctx context.Context, cfg config) (*outcome, error) {
		return runGateway(ctx, cfg, mapShape, "committee", setupMap)
	},
	"study": runStudy,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: survey, map or study")
	flag.Int64Var(&cfg.seed, "seed", 0, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.workDir, "work-dir", filepath.Join(".bench_build", "nbhdbench"), "directory for traces and study artifacts")
	flag.Parse()
	wl, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: nbhdbench --workload survey|map|study --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg.budget = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := wl(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbhdbench: %s: %v\n", cfg.workload, err)
		return 1
	}

	mc, kc, nc := tensor.GEMMBlocks()
	fmt.Printf("workload %s seed %d seconds %d trace %d gomaxprocs %d gemm_blocks mc=%d kc=%d nc=%d workload.repeat_share %.4f\n",
		cfg.workload, cfg.seed, seconds, trace, runtime.GOMAXPROCS(0), mc, kc, nc, out.repeatShare)
	for _, l := range out.lines {
		fmt.Println(l)
	}
	defs, values := e2eMetrics, out.e2e
	if cfg.trace {
		if out.attempted > 0 {
			out.layers["loadgen.failed_ratio"] = float64(out.failed) / float64(out.attempted)
		}
		spans := out.tr.spans()
		path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := out.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "nbhdbench: %v\n", err)
			return 1
		}
		fmt.Printf("trace %d spans written to %s\n", len(spans), path)
		defs, values = layerMetrics, out.layers
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "nbhdbench: %s did not measure %s\n", cfg.workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("metric %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	if !cfg.trace {
		// The tail metrics are measured untraced here too, but their
		// run-to-run spread is too wide to gate; they are reported only.
		for _, name := range []string{"loadgen.p99_ms", "loadgen.max_rate_rps"} {
			fmt.Printf("ungated %-31s %14.6g\n", name, out.layers[name])
		}
	}
	for _, p := range out.problems {
		fmt.Println("FAIL", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbhdbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runGateway sets a gateway workload up (setupReps times untraced, once
// traced) and measures it.
func runGateway(ctx context.Context, cfg config, shape gatewayShape, route string, setup func(context.Context, int64) (*gatewayEnv, error)) (*outcome, error) {
	out := newOutcome()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var env *gatewayEnv
	var setups, trainSweeps []float64
	for i := 0; i < reps; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC() // every set-up starts from the same heap
		start := time.Now()
		e, err := setup(ctx, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		env = e
		setups = append(setups, time.Since(start).Seconds())
		trainSweeps = append(trainSweeps, env.trainSweep.Seconds())
		out.count(env.warmup)
	}
	defer env.close()
	out.lines = append(out.lines, fmt.Sprintf("setup_s %v train_sweep_s %v", setups, trainSweeps))
	env.trainSweep = time.Duration(median(trainSweeps) * float64(time.Second))

	var tr *tracer
	var base *phaseStats
	if cfg.trace {
		base = env.gen.closedLoop(ctx, "closed-untraced", shape.sweepLen*shape.closedSweeps, shape.inflight)
		out.count(base)
		tr = newTracer()
		env.gen.tr.Store(tr)
		for _, b := range env.backends {
			b.tr.Store(tr)
		}
	}
	out.lines = append(out.lines, fmt.Sprintf("before measuring: live heap %.1f MB, %d goroutines", liveHeapMB(), runtime.NumGoroutine()))
	mem := startHeapPeak()
	run, err := measureGateway(ctx, env, shape, route, cfg.budget, tr)
	peak := mem.finish()
	if err != nil {
		return nil, err
	}
	for _, p := range run.phases {
		out.count(p)
	}
	out.attempted += run.evalItems
	out.failed += run.evalWrong
	if run.evalWrong > 0 {
		out.problems = append(out.problems, fmt.Sprintf("direct sweeps: %d of %d answers differ from the oracle's", run.evalWrong, run.evalItems))
	}
	if msg := env.check(run.before, run.after); msg != "" {
		out.problems = append(out.problems, msg)
	}
	out.lines = append(out.lines, describeRun(run, env)...)
	if base != nil {
		out.lines = append(out.lines, phaseLine(base))
	}

	run.e2e(out.e2e, env, shape.sweepLen)
	out.e2e["setup_s"] = median(setups)
	out.e2e["mem_peak_mb"] = peak
	if !cfg.trace {
		if out.e2e["mean_accuracy"], err = env.quality(ctx); err != nil {
			return nil, fmt.Errorf("quality corpus: %w", err)
		}
	}
	run.layers(out.layers, env)
	sent := int(env.gen.cursor.Load())
	keys := make([]string, sent)
	for i := range keys {
		keys[i] = env.gen.seq[i%len(env.gen.seq)].Key
	}
	out.repeatShare = repeatShare(keys, resultCacheSize)
	if cfg.trace {
		out.layers["serve.wait_ms"] = waitMS(tr.spans())
		out.layers["trace.overhead_wall_s"] = run.closed.Wall.Seconds() - base.Wall.Seconds()
		out.layers["trace.overhead_p50_ms"] = summarize(run.closed.Lat).P50 - summarize(base.Lat).P50
		if err := env.replay(tr, out.layers); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		out.tr = tr
	}
	return out, nil
}

// runStudy sets the study up (setupReps times untraced, once traced)
// and runs jobs until the budget is spent, at least two so their
// artifacts can be compared.
func runStudy(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	root := filepath.Join(cfg.workDir, "study", strconv.Itoa(os.Getpid()))
	defer func() { _ = os.RemoveAll(root) }()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var env *studyEnv
	var setups []float64
	for i := 0; i < reps; i++ {
		if env != nil {
			_ = env.store.Close()
		}
		runtime.GC()
		start := time.Now()
		e, err := setupStudy(ctx, cfg.seed, filepath.Join(root, strconv.Itoa(i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		env = e
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { _ = env.store.Close() }()
	out.lines = append(out.lines, fmt.Sprintf("setup_s %v families %v", setups, env.families))

	var tr *tracer
	var base *studyJob
	if cfg.trace {
		var err error
		if base, err = env.runJob(ctx, nil); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	before := tensor.Stats()
	var jobs []*studyJob
	mem := startHeapPeak()
	start := time.Now()
	for len(jobs) < 2 || time.Since(start)+jobs[0].wall <= cfg.budget {
		runtime.GC() // every job starts from a collected heap
		job, err := env.runJob(ctx, tr)
		if err != nil {
			mem.finish()
			return nil, err
		}
		jobs = append(jobs, job)
	}
	peak := mem.finish()
	after := tensor.Stats()

	var keys []string
	for _, j := range append(jobs, base) {
		if j == nil {
			continue
		}
		keys = append(keys, env.families...)
		out.attempted += j.cells
		out.failed += len(j.failed)
		out.problems = append(out.problems, j.failed...)
		for i, d := range j.digests {
			if d != jobs[0].digests[i] {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("%s artifacts differ between runs of the same seed: %s vs %s", env.families[i], d, jobs[0].digests[i]))
			}
		}
	}
	for i, j := range jobs {
		out.lines = append(out.lines, fmt.Sprintf("job %d wall=%.3fs runs=%v cells=%d below_floor=%d", i, j.wall.Seconds(), j.runs, j.cells, len(j.failed)))
	}
	studyResult(jobs, before, after, out.e2e, out.layers)
	out.e2e["setup_s"] = median(setups)
	out.e2e["mem_peak_mb"] = peak
	out.repeatShare = repeatShare(keys, resultCacheSize)
	if cfg.trace {
		var walls, runs []float64
		for _, j := range jobs {
			walls = append(walls, j.wall.Seconds())
			for _, r := range j.runs {
				runs = append(runs, ms(r))
			}
		}
		var baseRuns []float64
		for _, r := range base.runs {
			baseRuns = append(baseRuns, ms(r))
		}
		out.layers["trace.overhead_wall_s"] = median(walls) - base.wall.Seconds()
		out.layers["trace.overhead_p50_ms"] = median(runs) - median(baseRuns)
		if err := replayStudyLayers(ctx, tr, out.layers, env.families); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		out.tr = tr
	}
	return out, nil
}

// heapPeak tracks the peak heap in use over the measured phases: the
// runtime/metrics figure for heap objects, live ones and dead ones not
// yet swept, sampled every heapSampleEvery by a background goroutine.
// Memory held only while requests are in flight (batch buffers, layer
// scratch, pending bodies) counts, because the sampler reads the heap
// while the phases run, not only between them.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const (
	heapObjects     = "/memory/classes/heap/objects:bytes"
	heapSampleEvery = 5 * time.Millisecond
)

func readHeap(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapPeak starts sampling; finish stops it.
func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	v := readHeap(heapObjects)
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

// liveHeapMB collects the heap and returns the live bytes left, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readHeap("/gc/heap/live:bytes")) / (1 << 20)
}
