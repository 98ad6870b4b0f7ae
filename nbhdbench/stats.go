package main

import (
	"container/list"
	"math"
	"regexp"
	"sort"
)

// summary is a latency distribution reduced to what the report prints:
// the median, the 99th percentile and the number of samples behind them.
type summary struct {
	N   int
	P50 float64
	P99 float64
}

// percentile returns the q-quantile (0 < q <= 1) of sorted by nearest
// rank: the smallest sample with at least q·n samples at or below it.
// It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// summarize sorts a copy of xs and reduces it to a summary.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), P50: percentile(s, 0.50), P99: percentile(s, 0.99)}
}

// median is the 0.5 nearest-rank percentile of an unsorted slice.
func median(xs []float64) float64 { return summarize(xs).P50 }

// windowedP99 splits xs, in the order recorded, into consecutive
// windows of at least size samples and returns the median of the
// windows' 99th percentiles, with the window count. One stall then
// moves one window's tail, not the result. Fewer than 2·size samples
// make one window, the plain p99.
func windowedP99(xs []float64, size int) (float64, int) {
	k := len(xs) / size
	if k < 1 {
		k = 1
	}
	p99s := make([]float64, k)
	for i := range p99s {
		lo, hi := i*len(xs)/k, (i+1)*len(xs)/k
		p99s[i] = summarize(xs[lo:hi]).P99
	}
	return median(p99s), k
}

// tailSupported reports whether n samples leave at least ten samples
// beyond the q-quantile, the fewest that make that percentile more than
// a report of the few slowest requests.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// rung is one probe of the open-loop rate ladder.
type rung struct {
	Rate    float64
	Lat     summary
	Failed  int
	Backlog bool // the in-flight count kept growing
	Capped  bool // the generator hit its in-flight cap and stopped
}

// judgeRung reduces one open-loop probe at rate to a rung. Its p99 is
// windowed like the reference phase's. The in-flight count may grow by
// up to half of what the latency limit allows at this rate (Little's
// law: rate × limit) before it counts as a backlog.
func judgeRung(rate, limitMS float64, lat []float64, failed int, inflight []int, capped bool) rung {
	r := rung{Rate: rate, Lat: summarize(lat), Failed: failed, Capped: capped}
	r.Lat.P99, _ = windowedP99(lat, p99Window)
	r.Backlog = backlogGrowing(inflight, rate*limitMS/2000)
	return r
}

// passes reports whether the probe met the workload's latency limit
// with nothing failed and no backlog.
func (r rung) passes(limitMS float64) bool {
	return r.Lat.N > 0 && r.Lat.P99 <= limitMS && r.Failed == 0 && !r.Backlog && !r.Capped
}

// ladderRates returns the fixed rate ladder: n rungs from base, each a
// factor step above the last.
func ladderRates(base, step float64, n int) []float64 {
	out := make([]float64, n)
	r := base
	for i := range out {
		out[i] = r
		r *= step
	}
	return out
}

// maxPassingRate bisects the fixed ladder for the highest rung that
// passes, assuming a rung that passes implies every lower one does. It
// returns 0 when even the lowest rung fails.
func maxPassingRate(rates []float64, pass func(rate float64) bool) float64 {
	lo, hi := -1, len(rates) // rates[lo] passes, rates[hi] fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(rates[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0
	}
	return rates[lo]
}

// backlogGrowing reports whether an in-flight count sampled at even
// intervals trends upward: the mean of the last quarter of the samples
// exceeds twice the mean of the first quarter plus slack. A system that
// keeps up holds a steady in-flight count; one that falls behind
// accumulates requests for as long as the offered rate lasts.
func backlogGrowing(samples []int, slack float64) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return mean(samples[len(samples)-q:]) > 2*mean(samples[:q])+slack
}

// repeatShare is the share of keys that an LRU of the given capacity,
// fed the whole sequence, would find already present: how much of the
// workload repeats within a cache's reach.
func repeatShare(keys []string, capacity int) float64 {
	if len(keys) == 0 || capacity < 1 {
		return 0
	}
	order := list.New()
	at := make(map[string]*list.Element, capacity)
	hits := 0
	for _, k := range keys {
		if e, ok := at[k]; ok {
			hits++
			order.MoveToFront(e)
			continue
		}
		at[k] = order.PushFront(k)
		if order.Len() > capacity {
			last := order.Back()
			order.Remove(last)
			delete(at, last.Value.(string))
		}
	}
	return float64(hits) / float64(len(keys))
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the benchmark's metric
// vocabulary: a letter or digit, then at most 63 letters, digits, '_',
// '.' or '-'.
func validMetricName(name string) bool { return metricName.MatchString(name) }
