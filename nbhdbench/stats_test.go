package main

import (
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.P99 != 99 {
		t.Fatalf("summarize(1..100) = %+v, want N=100 P50=50 P99=99", s)
	}
	if got := summarize(nil); got.N != 0 || got.P50 != 0 || got.P99 != 0 {
		t.Fatalf("summarize(nil) = %+v, want zeros", got)
	}
	if got := summarize([]float64{7}); got.P50 != 7 || got.P99 != 7 {
		t.Fatalf("summarize([7]) = %+v, want 7s", got)
	}
	if xs[0] != 100 {
		t.Fatal("summarize sorted its input in place")
	}
}

func TestWindowedP99(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 100) // each window of 1000 holds 0..99 ten times
	}
	for i := 0; i < 30; i++ {
		xs[i] = 1000 // a stall in the first window
	}
	got, k := windowedP99(xs, 1000)
	if k != 3 || got != 98 {
		t.Fatalf("windowedP99 = %v over %d windows, want 98 over 3", got, k)
	}
	if got, k := windowedP99(xs[:1500], 1000); k != 1 || got != summarize(xs[:1500]).P99 {
		t.Fatalf("short series: %v over %d windows, want the plain p99 over 1", got, k)
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMaxPassingRateBisectsLadder(t *testing.T) {
	rates := ladderRates(100, 2, 6) // 100 200 400 800 1600 3200
	if rates[5] != 3200 {
		t.Fatalf("ladderRates = %v", rates)
	}
	capacity := 1000.0
	probes := 0
	pass := func(rate float64) bool {
		probes++
		return rate <= capacity
	}
	if got := maxPassingRate(rates, pass); got != 800 {
		t.Fatalf("max rate = %v, want 800", got)
	}
	if probes > 3 {
		t.Fatalf("bisection over 6 rungs made %d probes, want <= 3", probes)
	}
	capacity = 10
	if got := maxPassingRate(rates, pass); got != 0 {
		t.Fatalf("max rate with every rung failing = %v, want 0", got)
	}
	capacity = 1e9
	if got := maxPassingRate(rates, pass); got != 3200 {
		t.Fatalf("max rate with every rung passing = %v, want 3200", got)
	}
}

func TestRungPasses(t *testing.T) {
	ok := rung{Lat: summary{N: 10, P99: 20}}
	if !ok.passes(20) {
		t.Fatal("rung at the limit should pass")
	}
	for name, r := range map[string]rung{
		"slow":    {Lat: summary{N: 10, P99: 21}},
		"failed":  {Lat: summary{N: 10, P99: 1}, Failed: 1},
		"backlog": {Lat: summary{N: 10, P99: 1}, Backlog: true},
		"capped":  {Lat: summary{N: 10, P99: 1}, Capped: true},
		"empty":   {},
	} {
		if r.passes(20) {
			t.Errorf("%s rung passed", name)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := []int{5, 6, 4, 5, 6, 5, 4, 6, 5, 5, 6, 4}
	if backlogGrowing(steady, 4) {
		t.Fatal("steady in-flight count flagged as backlog")
	}
	var growing []int
	for i := 0; i < 40; i++ {
		growing = append(growing, 5+3*i)
	}
	if !backlogGrowing(growing, 4) {
		t.Fatal("linearly growing in-flight count not flagged")
	}
	if backlogGrowing([]int{0, 0, 9}, 4) {
		t.Fatal("too few samples to judge should not flag")
	}
	// A burst that drains again is not a backlog.
	burst := []int{2, 2, 2, 40, 60, 30, 10, 3, 2, 2, 2, 2}
	if backlogGrowing(burst, 4) {
		t.Fatal("drained burst flagged as backlog")
	}
}

func TestRepeatShare(t *testing.T) {
	cycle := func(n, reps int) []string {
		var keys []string
		for r := 0; r < reps; r++ {
			for i := 0; i < n; i++ {
				keys = append(keys, string(rune('a'+i%26))+strings.Repeat("x", i/26))
			}
		}
		return keys
	}
	// Cycling a working set larger than the cache never repeats within
	// its reach: the LRU evicts each key just before it comes back.
	if got := repeatShare(cycle(30, 4), 20); got != 0 {
		t.Fatalf("repeatShare(cycle 30 over LRU 20) = %v, want 0", got)
	}
	// The same cycle inside the cache repeats after the first pass.
	if got := repeatShare(cycle(10, 4), 20); got != 0.75 {
		t.Fatalf("repeatShare(cycle 10 over LRU 20) = %v, want 0.75", got)
	}
	if got := repeatShare(nil, 20); got != 0 {
		t.Fatalf("repeatShare(nil) = %v, want 0", got)
	}
}

func TestValidMetricName(t *testing.T) {
	for _, name := range []string{"p50_ms", "serve.cache_hit_ratio", "nn.predict_ms_per_item.b16", "9x", "a-b"} {
		if !validMetricName(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", ".x", "_x", "a b", "sweep:clean", "ü", strings.Repeat("a", 65)} {
		if validMetricName(name) {
			t.Errorf("%q accepted", name)
		}
	}
}
