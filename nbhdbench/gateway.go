package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"nbhd/internal/fleet"
	"nbhd/internal/serve"
	"nbhd/internal/tensor"
)

// gatewayShape fixes how a gateway workload is driven. Every field is a
// constant of the workload, identical on every commit measured.
type gatewayShape struct {
	sweepLen     int       // requests in one sweep of the workload
	closedSweeps int       // sweeps in the closed-loop phase
	directEvery  int       // a direct sweep follows every directEvery-th closed-loop sweep
	inflight     int       // concurrent requests in the closed loop
	ladder       []float64 // fixed open-loop rate ladder, req/s
	limitMS      float64   // p99 latency limit for a ladder rung
	refRate      float64   // reference rate for p50_ms and loadgen.p99_ms
	maxInflight  int       // open-loop cap; stays below the gateway's admission queue
}

// p99Window is the smallest window loadgen.p99_ms takes a 99th
// percentile over: ten samples beyond it.
const p99Window = 1000

// gatewayEnv is one set-up instance of a gateway workload.
type gatewayEnv struct {
	gen      *generator
	servers  []*serve.Server
	backends []*timedBackend
	router   *fleet.Router // nil when the client talks to one gateway
	close    func()

	trainSweep time.Duration // training (if any) plus the first, cold sweep
	warmup     *phaseStats
	// evalSweep classifies the whole corpus with direct Classify calls
	// on the route's backend, outside the gateway, and returns how many
	// answers it got and how many differ from the oracle's.
	evalSweep func(ctx context.Context) (items, wrong int, err error)
	// quality scores the route's backend on a fixed corpus, the same
	// for every seed: mean_accuracy.
	quality func(ctx context.Context) (float64, error)
	// replay times the workload's layer calls outside the gateway,
	// filling per-layer metrics; it runs only in traced runs.
	replay func(tr *tracer, m map[string]float64) error
	// check enforces the workload's bypass property over the measured
	// phases, returning a reason to fail the run.
	check func(before, after counters) string
}

// counters are the process and gateway counters a measured phase moves.
type counters struct {
	tensor  tensor.ComputeStats
	backend backendStats
	routes  []serve.RouteMetrics
	router  fleet.Metrics
}

func (e *gatewayEnv) counters(route string) counters {
	c := counters{tensor: tensor.Stats()}
	for _, b := range e.backends {
		c.backend = c.backend.add(b.stats())
	}
	for _, s := range e.servers {
		c.routes = append(c.routes, s.Metrics().Routes[route])
	}
	if e.router != nil {
		c.router = e.router.Metrics()
	}
	return c
}

// routeDelta sums the batch, dedup and cache counters the gateways
// moved between two snapshots.
type routeDelta struct {
	CacheHits, Batches, Items, Dedup int64
}

func diffRoutes(before, after []serve.RouteMetrics) routeDelta {
	var d routeDelta
	for i := range after {
		a, b := after[i], before[i]
		d.CacheHits += a.CacheHits - b.CacheHits
		d.Batches += a.Batches - b.Batches
		d.Dedup += a.DedupHits - b.DedupHits
		for size, n := range a.BatchHist {
			d.Items += int64(size) * (n - b.BatchHist[size])
		}
	}
	return d
}

// gatewayRun is what a gateway workload's measured phases produced.
type gatewayRun struct {
	closed *phaseStats
	sweeps []time.Duration
	// evalSweeps time the direct sweeps (untraced runs only); evalItems
	// and evalWrong count their answers and those unlike the oracle's.
	evalSweeps []time.Duration
	evalItems  int
	evalWrong  int
	// capped counts reference slices the generator cut short because
	// maxInflight requests were outstanding: the gateway fell behind
	// the reference rate there.
	capped, slices int
	// sliceP50s are the reference slices' latency medians.
	sliceP50s []float64
	probes    []rung
	maxRate   float64
	reference *phaseStats
	phases    []*phaseStats
	wall      time.Duration // all measured phases
	before    counters
	after     counters
	// gatewayP50 is the gateways' own latency p50 right after the first
	// closed-loop sweep, averaged over replicas.
	gatewayP50 float64
}

// measureGateway runs the closed-loop sweeps, the direct evaluation
// sweeps (untraced runs only), the ladder and the reference phase
// against a set-up environment. The host lends the guest more or less
// CPU from one ten seconds to the next, so the sweeps are spread over
// the whole run: one before the ladder, one after it, and one after
// each slice of the reference phase; a direct sweep follows every
// directEvery-th of them. Every sweep, probe and slice starts from a
// collected heap, so none pays for the garbage of the one before.
func measureGateway(ctx context.Context, env *gatewayEnv, shape gatewayShape, route string, budget time.Duration, tr *tracer) (*gatewayRun, error) {
	run := &gatewayRun{before: env.counters(route), closed: &phaseStats{Name: "closed"}}
	start := time.Now()
	var err error // from a direct sweep's backend
	sweep := func() {
		runtime.GC()
		_ = tr.phase("phase.closed", func() error {
			ps := env.gen.closedLoop(ctx, "closed", shape.sweepLen, shape.inflight)
			run.closed.merge(ps)
			run.sweeps = append(run.sweeps, ps.Wall)
			return nil
		})
		if tr != nil || err != nil || (len(run.sweeps)-1)%shape.directEvery != 0 {
			return
		}
		runtime.GC()
		start := time.Now()
		items, wrong, e := env.evalSweep(ctx)
		if err = e; e == nil {
			run.evalSweeps = append(run.evalSweeps, time.Since(start))
			run.evalItems += items
			run.evalWrong += wrong
		}
	}
	sweep()
	var p50s []float64
	for _, s := range env.servers {
		p50s = append(p50s, s.Metrics().Routes[route].Latency.P50)
	}
	run.gatewayP50 = mean(p50s)

	// A rung is judged by the majority of probeVotes short probes, so a
	// few seconds in which the host lends the run less CPU fail one
	// probe, not the rung.
	const probeVotes = 3
	steps := int(math.Ceil(math.Log2(float64(len(shape.ladder) + 1))))
	probeDur := time.Duration(0.30 * float64(budget) / float64(steps*probeVotes))
	ladder := &phaseStats{Name: "ladder"}
	_ = tr.phase("phase.ladder", func() error {
		run.maxRate = maxPassingRate(shape.ladder, func(rate float64) bool {
			votes := 0
			for i := 0; i < probeVotes; i++ {
				runtime.GC()
				ps, inflight, capped := env.gen.openLoop(ctx, "ladder", rate, probeDur, shape.maxInflight)
				ladder.merge(ps)
				r := judgeRung(rate, shape.limitMS, ps.Lat, ps.Failed, inflight, capped)
				run.probes = append(run.probes, r)
				if r.passes(shape.limitMS) {
					votes++
				}
			}
			return 2*votes > probeVotes
		})
		return nil
	})
	sweep()

	slices := shape.closedSweeps - 2
	refDur := time.Duration(0.45 * float64(budget) / float64(slices))
	run.reference = &phaseStats{Name: "reference"}
	run.slices = slices
	for i := 0; i < slices; i++ {
		runtime.GC()
		_ = tr.phase("phase.reference", func() error {
			ps, _, capped := env.gen.openLoop(ctx, "reference", shape.refRate, refDur, shape.maxInflight)
			run.reference.merge(ps)
			run.sliceP50s = append(run.sliceP50s, summarize(ps.Lat).P50)
			if capped {
				run.capped++
			}
			return nil
		})
		sweep()
	}
	run.phases = append(run.phases, run.closed, ladder, run.reference)
	run.wall = time.Since(start)
	run.after = env.counters(route)
	if err != nil {
		return nil, fmt.Errorf("direct sweep: %w", err)
	}
	return run, ctx.Err()
}

// e2e fills the end-to-end metrics of a gateway workload. Throughput is
// that of the median closed-loop sweep, eval_sweep_p50_s the median
// direct sweep and p50_ms the median of the reference slices' medians,
// so seconds in which the host lends the run less CPU slow one sweep or
// slice, not the result.
func (run *gatewayRun) e2e(m map[string]float64, env *gatewayEnv, sweepLen int) {
	var sw, ev []float64
	for _, d := range run.sweeps {
		sw = append(sw, d.Seconds())
	}
	for _, d := range run.evalSweeps {
		ev = append(ev, d.Seconds())
	}
	m["throughput_rps"] = float64(sweepLen) / median(sw)
	m["eval_sweep_p50_s"] = median(ev)
	m["p50_ms"] = median(run.sliceP50s)
	m["train_sweep_s"] = env.trainSweep.Seconds()
}

// layers fills the per-layer metrics the counters give, and the tail
// metrics too noisy to gate.
func (run *gatewayRun) layers(m map[string]float64, env *gatewayEnv) {
	m["loadgen.max_rate_rps"] = run.maxRate
	m["loadgen.p99_ms"], _ = windowedP99(run.reference.Lat, p99Window)
	rd := diffRoutes(run.before.routes, run.after.routes)
	if rd.Batches > 0 {
		m["serve.mean_batch"] = float64(rd.Items) / float64(rd.Batches)
	}
	if lookups := rd.CacheHits + rd.Items + rd.Dedup; lookups > 0 {
		m["serve.cache_hit_ratio"] = float64(rd.CacheHits) / float64(lookups)
	}
	if misses := rd.Items + rd.Dedup; misses > 0 {
		m["serve.dedup_ratio"] = float64(rd.Dedup) / float64(misses)
	}
	m["http.overhead_ms"] = summarize(run.closed.Lat).P50 - run.gatewayP50

	bd := run.after.backend.sub(run.before.backend)
	if bd.Items > 0 {
		m["backend.ms_per_item"] = ms(bd.InCall) / float64(bd.Items)
		m["tensor.gemm_calls_per_item"] = float64(run.after.tensor.GEMMCalls-run.before.tensor.GEMMCalls) / float64(bd.Items)
	}
	if bd.Calls > 0 {
		m["backend.items_per_call"] = float64(bd.Items) / float64(bd.Calls)
	}
	m["backend.busy_share"] = bd.Busy.Seconds() / (run.wall.Seconds() * float64(len(env.backends)))
	tensorLayers(m, run.before.tensor, run.after.tensor)

	if env.router != nil {
		b, a := run.before.router, run.after.router
		var fwd []float64
		for id, n := range a.Forwarded {
			fwd = append(fwd, float64(n-b.Forwarded[id]))
		}
		sort.Float64s(fwd)
		if len(fwd) > 0 && mean(fwd) > 0 {
			m["fleet.forward_imbalance"] = fwd[len(fwd)-1] / mean(fwd)
		}
		if req := a.Requests - b.Requests; req > 0 {
			m["fleet.spill_ratio"] = float64(a.LoadSpills-b.LoadSpills) / float64(req)
		}
		m["fleet.failovers"] = float64(a.Failovers - b.Failovers)
	}
	m["loadgen.late_p99_ms"] = summarize(run.reference.Late).P99
}

func tensorLayers(m map[string]float64, before, after tensor.ComputeStats) {
	m["tensor.qgemm_calls"] = float64(after.QuantizedGEMMCalls - before.QuantizedGEMMCalls)
	reuse := after.PanelReuses - before.PanelReuses
	if packs := reuse + after.PanelAllocs - before.PanelAllocs; packs > 0 {
		m["tensor.panel_reuse_ratio"] = float64(reuse) / float64(packs)
	}
}

// waitMS joins backend batch spans to request spans by frame ID: for
// each item, the time from its request's start to the start of the
// Classify call that served it. It returns the median in milliseconds.
func waitMS(spans []span) float64 {
	type req struct{ start, end int64 }
	byFrame := make(map[string][]req)
	for _, s := range spans {
		if s.Key != "" {
			byFrame[s.Key] = append(byFrame[s.Key], req{s.Start, s.End})
		}
	}
	var waits []float64
	for _, s := range spans {
		if s.Name != "backend.classify" {
			continue
		}
		for _, id := range s.Items {
			// The request for this frame that was open when the batch
			// started and began last.
			best := int64(-1)
			for _, r := range byFrame[id] {
				if r.start <= s.Start && r.end >= s.Start && r.start > best {
					best = r.start
				}
			}
			if best >= 0 {
				waits = append(waits, float64(s.Start-best)/1e6)
			}
		}
	}
	return median(waits)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// describeRun prints a gateway run's phases and ladder probes.
func describeRun(run *gatewayRun, env *gatewayEnv) []string {
	var lines []string
	for _, p := range append([]*phaseStats{env.warmup}, run.phases...) {
		lines = append(lines, phaseLine(p))
	}
	lines = append(lines, fmt.Sprintf("closed sweeps %v", run.sweeps))
	if len(run.evalSweeps) > 0 {
		lines = append(lines, fmt.Sprintf("direct sweeps %v items=%d wrong=%d", run.evalSweeps, run.evalItems, run.evalWrong))
	}
	for _, r := range run.probes {
		lines = append(lines, fmt.Sprintf("ladder rate=%.0f/s p50=%.2fms p99=%.2fms n=%d failed=%d backlog=%v capped=%v",
			r.Rate, r.Lat.P50, r.Lat.P99, r.Lat.N, r.Failed, r.Backlog, r.Capped))
	}
	ref := summarize(run.reference.Lat)
	p99, windows := windowedP99(run.reference.Lat, p99Window)
	lines = append(lines, fmt.Sprintf("reference rate=%.0f/s p50=%.3fms p99=%.3fms n=%d p99_supported=%v windowed_p99=%.3fms windows=%d slice_p50s=%.3f",
		float64(run.reference.Sent)/run.reference.Wall.Seconds(), ref.P50, ref.P99, ref.N, tailSupported(ref.N, 0.99), p99, windows, run.sliceP50s))
	if run.capped > 0 {
		lines = append(lines, fmt.Sprintf("WARN reference: %d of %d slices stopped early at the cap on outstanding requests; the gateway fell behind the reference rate and p50_ms includes an overloaded phase",
			run.capped, run.slices))
	}
	return lines
}

func phaseLine(p *phaseStats) string {
	s := fmt.Sprintf("phase %s sent=%d ok=%d failed=%d shed=%d wall=%.3fs", p.Name, p.Sent, p.OK, p.Failed, p.Shed, p.Wall.Seconds())
	for _, e := range p.Errs {
		s += "\n  error: " + e
	}
	return s
}
