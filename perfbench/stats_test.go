package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/swarm"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: exactly ten
		{999, 0.99, 990, false}, // nine beyond
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{11, 0.5, 6, false},
		{21, 0.5, 11, true},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestHeapPeakIsMedianOfWindowPeaks(t *testing.T) {
	// Three one-second windows peaking at 4, 6 and 5 MB over a 2 MB
	// floor. A 64 MB spike in the first window moves that window's peak
	// only, not the median.
	const mb = 1 << 20
	h := &heapSampler{}
	for w, top := range []uint64{4, 6, 5} {
		for i := 0; i < heapWindow; i++ {
			h.samples = append(h.samples, 2*mb)
		}
		h.samples[w*heapWindow+heapWindow/2] = top * mb
	}
	h.samples[10] = 64 * mb
	if got := h.peak(); got != 6 {
		t.Errorf("peak = %v MB, want 6 (windows peak at 64, 6 and 5)", got)
	}
	h.samples = h.samples[heapWindow:]
	if got := h.peak(); got != 5.5 {
		t.Errorf("peak = %v MB, want 5.5 (median of 6 and 5)", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Three windows of 1000; a burst fills the second window's tail.
	xs := append(append(seq(1000), seq(1000)...), seq(1000)...)
	for i := 1000; i < 1040; i++ {
		xs[i] = 1e6
	}
	got, ok := windowedPercentile(xs, 0.99)
	if !ok || got != 990 {
		t.Errorf("windowed p99 = %v, %v; want 990 (the burst's window outvoted)", got, ok)
	}
	if p, _ := percentile(xs, 0.99); p != 1e6 {
		t.Errorf("plain p99 = %v, want the burst", p)
	}
	if _, ok := windowedPercentile(seq(999), 0.99); ok {
		t.Error("999 samples reported a p99 window")
	}
	if got, ok := windowedPercentile(seq(1999), 0.99); !ok || got != 1980 {
		t.Errorf("one window of 1999: %v, %v; want the plain p99 1980", got, ok)
	}
}

func TestLadderBisection(t *testing.T) {
	l := ladder{base: 10, growth: 1.08, steps: 31}
	for top := -1; top < l.steps; top++ {
		probes := 0
		got := l.highestPassing(5, func(k int) bool {
			probes++
			return k <= top
		})
		if got != top {
			t.Errorf("capacity at step %d: bisection found %d", top, got)
		}
		if probes > 5 {
			t.Errorf("capacity at step %d: %d probes", top, probes)
		}
	}
	if r := l.rate(2); r < 11.66 || r > 11.67 {
		t.Errorf("rate(2) = %v, want 10×1.08²", r)
	}
}

// steady lays out n requests every interval, each served in service time;
// with one server, requests queue when service exceeds the interval.
func steady(n int, interval, service time.Duration) []sample {
	var out []sample
	var free time.Duration
	for i := 0; i < n; i++ {
		at := time.Duration(i) * interval
		sent := max(at, free)
		free = sent + service
		out = append(out, sample{sched: at, sent: sent, done: free})
	}
	return out
}

func TestStepVerdictAndBacklog(t *testing.T) {
	limit := 20 * time.Millisecond
	ok := steady(400, 5*time.Millisecond, 4*time.Millisecond)
	if pass, why := stepVerdict(ok, limit); !pass {
		t.Fatalf("system keeping up failed: %s", why)
	}
	// 25% over capacity: the queue grows by one request every 20 ms.
	over := steady(400, 5*time.Millisecond, 6250*time.Microsecond)
	if !backlogGrew(over) {
		t.Fatal("growing backlog not detected")
	}
	// 12% over capacity: every latency stays under a generous limit, but
	// the backlog grows faster than maxBacklogGrowth.
	creep := steady(400, 5*time.Millisecond, 5600*time.Microsecond)
	if pass, why := stepVerdict(creep, time.Second); pass || why != "backlog grew" {
		t.Fatalf("growing backlog under the limit: pass=%v %q", pass, why)
	}
	// 5% over capacity grows slower than the threshold.
	if mild := steady(400, 5*time.Millisecond, 5250*time.Microsecond); backlogGrew(mild) {
		t.Fatal("backlog growing at 5% flagged")
	}
	// p99 rule: 1% of requests may exceed the limit, 1% plus one may not.
	slow := steady(400, 5*time.Millisecond, 4*time.Millisecond)
	for i := 0; i < 4; i++ {
		slow[i*50].done += time.Second
	}
	if pass, why := stepVerdict(slow, limit); !pass {
		t.Fatalf("4 of 400 over the limit failed: %s", why)
	}
	slow[7].failed = true
	if pass, _ := stepVerdict(slow, limit); pass {
		t.Fatal("5 of 400 over the limit (one failed) passed")
	}
	if r := achievedRate(ok); r < 199 || r > 201 {
		t.Errorf("achieved rate %v, want ~200/s", r)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	msd := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	parent := span{msd(0), msd(100)}
	children := []span{{msd(20), msd(50)}, {msd(10), msd(30)}, {msd(80), msd(120)}, {msd(25), msd(26)}}
	// Covered: 10..50 and 80..100 (the last child is clipped) = 60 ms.
	if got := selfTime(parent, children); got != msd(40) {
		t.Errorf("self time = %v, want 40ms", got)
	}
	if got := selfTime(parent, nil); got != msd(100) {
		t.Errorf("self time without children = %v, want 100ms", got)
	}
	// Two workers over 0..10: both busy 2..6, one idle elsewhere.
	busy := []span{{msd(0), msd(6)}, {msd(2), msd(10)}}
	if got := underfilled(busy, 2, 0, msd(10)); got != msd(6) {
		t.Errorf("underfilled = %v, want 6ms", got)
	}
}

// TestPaperRatiosMatchSummary holds paperRatios to exp.Summary's printed
// ratios on the tiny grid.
func TestPaperRatiosMatchSummary(t *testing.T) {
	opt := exp.DefaultOptions(bench.Tiny)
	r := exp.NewRunner(opt)
	var out strings.Builder
	if err := exp.Summary(context.Background(), r, &out); err != nil {
		t.Fatal(err)
	}
	stats := make(map[gridPoint]*swarm.Stats)
	for _, rec := range r.Export().Records {
		st := swarm.StatsFromSnapshot(rec.Snapshot)
		kind, err := parseKind(rec.Labels["sched"])
		if err != nil {
			t.Fatal(err)
		}
		stats[gridPoint{rec.Labels["bench"], kind, st.Cores}] = st
	}
	if got, want := len(stats), len(summaryPoints(tinyMaxCores)); got != want {
		t.Fatalf("Summary ran %d points, summaryPoints lists %d", got, want)
	}
	for _, p := range summaryPoints(tinyMaxCores) {
		if stats[p] == nil {
			t.Fatalf("summaryPoints lists %v, which Summary did not run", p)
		}
	}
	speedup, wasted, traffic, err := paperRatios(stats, tinyMaxCores)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSummaryText(out.String(), speedup, wasted, traffic); err != nil {
		t.Fatal(err)
	}
	delete(stats, gridPoint{"bfs-fg", swarm.Hints, tinyMaxCores})
	if _, _, _, err := paperRatios(stats, tinyMaxCores); err == nil {
		t.Fatal("missing grid point not reported")
	}
}
