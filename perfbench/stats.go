package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/swarm"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer samples is noise, not a measurement.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie strictly above its rank. A
// percentile that fails the rule is still returned, so a caller can show
// it, but must not report it as a measurement.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank > n-1 {
		rank = n - 1
	}
	return s[rank], n-1-rank >= minBeyond
}

// windowedPercentile cuts xs, in the order they were taken, into as many
// consecutive windows as leave each one enough samples for a q-quantile
// with minBeyond beyond it, and returns the median of the windows'
// q-quantiles; ok is false when not even one window fits. A burst of host
// noise then moves one window's tail, not the reported one.
func windowedPercentile(xs []float64, q float64) (float64, bool) {
	k := len(xs) / minSamples(q)
	if k == 0 {
		v, _ := percentile(xs, q)
		return v, false
	}
	var ws []float64
	for i := 0; i < k; i++ {
		v, _ := percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
		ws = append(ws, v)
	}
	return median(ws), true
}

// minSamples is the fewest samples for which the q-quantile has minBeyond
// samples beyond it.
func minSamples(q float64) int {
	n := minBeyond
	for {
		if _, ok := percentile(make([]float64, n), q); ok {
			return n
		}
		n++
	}
}

// span is one timed interval in the benchmark's clock: an engine run, a
// request, or a trace span.
type span struct {
	start, end time.Duration
}

// coverage returns the total length of the union of the intervals,
// clipped to [lo, hi].
func coverage(ivs []span, lo, hi time.Duration) time.Duration {
	var clipped []span
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, span{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur span
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of its interval its
// children cover; overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	return parent.end - parent.start - coverage(children, parent.start, parent.end)
}

// underfilled returns how long, within [lo, hi], fewer than slots of the
// intervals were in progress at once: the time a pool of slots workers
// spent with at least one worker idle.
func underfilled(ivs []span, slots int, lo, hi time.Duration) time.Duration {
	type edge struct {
		at    time.Duration
		delta int
	}
	edges := []edge{{lo, 0}, {hi, 0}}
	for _, iv := range ivs {
		edges = append(edges, edge{iv.start, +1}, edge{iv.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	var idle time.Duration
	busy := 0
	for i, e := range edges {
		busy += e.delta
		if i+1 == len(edges) {
			break
		}
		s, t := max(e.at, lo), min(edges[i+1].at, hi)
		if t > s && busy < slots {
			idle += t - s
		}
	}
	return idle
}

// ladder is the fixed rate ladder max_rps is read from: step k offers
// base×growth^k requests per second.
type ladder struct {
	base   float64
	growth float64
	steps  int
}

func (l ladder) rate(k int) float64 { return l.base * math.Pow(l.growth, float64(k)) }

// highestPassing bisects the ladder for its highest step that passes,
// assuming a step passes only if every lower step does, and returns -1
// when none does. It probes at most maxProbes steps, which settles the
// answer exactly for a ladder of up to 2^maxProbes-1 steps. probe reports
// whether a step passed.
func (l ladder) highestPassing(maxProbes int, probe func(k int) bool) int {
	lo, hi := -1, l.steps // lo passes (or is -1), hi fails (or is past the end)
	for p := 0; p < maxProbes && hi-lo > 1; p++ {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// sample is one open-loop request's timeline, relative to its phase start.
// A dropped request was never sent (see openLoop).
type sample struct {
	sched, sent, done time.Duration
	sweep             bool
	failed            bool
	dropped           bool
}

func (s sample) latency() time.Duration { return s.done - s.sched }
func (s sample) late() time.Duration    { return s.sent - s.sched }

// stepVerdict judges one ladder step: it passes when at most 1% of its
// requests failed, were dropped or exceeded limit — that is, its p99 meets
// the limit — and its backlog did not grow.
func stepVerdict(samples []sample, limit time.Duration) (pass bool, why string) {
	over := 0
	for _, s := range samples {
		if s.failed || s.dropped || s.latency() > limit {
			over++
		}
	}
	if allowed := len(samples) / 100; over > allowed {
		return false, fmt.Sprintf("%d of %d requests over the %v limit", over, len(samples), limit)
	}
	if backlogGrew(samples) {
		return false, "backlog grew"
	}
	return true, ""
}

// maxBacklogGrowth is how fast a step's backlog may grow: the generator may
// fall behind by at most this share of the time that passes. A system
// keeping up holds its lateness steady; one offered 10% more than it can
// serve falls behind by 0.1 s every second.
const maxBacklogGrowth = 0.1

// backlogGrew reports whether the generator fell further behind over a
// step: between the step's first and last quarter of requests (in schedule
// order), median lateness grew faster than maxBacklogGrowth.
func backlogGrew(samples []sample) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	mid := func(ss []sample) (sched, late float64) {
		var xs, ys []float64
		for _, s := range ss {
			xs = append(xs, float64(s.sched))
			ys = append(ys, float64(s.late()))
		}
		return median(xs), median(ys)
	}
	t0, l0 := mid(samples[:q])
	t1, l1 := mid(samples[len(samples)-q:])
	return t1 > t0 && (l1-l0)/(t1-t0) > maxBacklogGrowth
}

// achievedRate is completed requests per second over the span from the
// first scheduled send to the last completion.
func achievedRate(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	first, last := samples[0].sched, samples[0].done
	ok := 0
	for _, s := range samples {
		first = min(first, s.sched)
		last = max(last, s.done)
		if !s.failed && !s.dropped {
			ok++
		}
	}
	if last <= first {
		return 0
	}
	return float64(ok) / (last - first).Seconds()
}

// paperRatios computes the three Sec. VI-B ratios exactly as exp.Summary
// does at max cores mc: the Hints+FG over Random gmean speedup ratio,
// Random over Hints+FG aborted cycles, and Random over Hints+FG NoC flits.
// Hints+FG is, per benchmark, the faster at mc of its coarse- and
// fine-grain variants under Hints.
func paperRatios(stats map[gridPoint]*swarm.Stats, mc int) (speedup, wasted, traffic float64, err error) {
	need := func(name string, kind swarm.SchedKind, cores int) (*swarm.Stats, error) {
		if st := stats[gridPoint{name, kind, cores}]; st != nil {
			return st, nil
		}
		return nil, fmt.Errorf("grid point %s/%v/%d missing", name, kind, cores)
	}
	hasFG := make(map[string]bool)
	for _, n := range bench.FGNames() {
		hasFG[n] = true
	}
	var logR, logHF float64
	var abortR, abortH, trafR, trafH float64
	for _, name := range bench.Names() {
		base, err := need(name, swarm.Random, 1)
		if err != nil {
			return 0, 0, 0, err
		}
		rst, err := need(name, swarm.Random, mc)
		if err != nil {
			return 0, 0, 0, err
		}
		variant := name
		hst, err := need(name, swarm.Hints, mc)
		if err != nil {
			return 0, 0, 0, err
		}
		if hasFG[name] {
			fg, err := need(name+"-fg", swarm.Hints, mc)
			if err != nil {
				return 0, 0, 0, err
			}
			if fg.Cycles < hst.Cycles {
				variant, hst = name+"-fg", fg
			}
		}
		vbase, err := need(variant, swarm.Random, 1)
		if err != nil {
			return 0, 0, 0, err
		}
		logR += math.Log(float64(base.Cycles) / float64(rst.Cycles))
		logHF += math.Log(float64(vbase.Cycles) / float64(hst.Cycles))
		abortR += float64(rst.Breakdown.Abort)
		abortH += float64(hst.Breakdown.Abort)
		trafR += float64(rst.TotalTraffic())
		trafH += float64(hst.TotalTraffic())
	}
	n := float64(len(bench.Names()))
	speedup = math.Exp(logHF/n) / math.Exp(logR/n)
	if abortH == 0 || trafH == 0 {
		return 0, 0, 0, fmt.Errorf("Hints+FG grid has no aborted cycles or no traffic")
	}
	return speedup, abortR / abortH, trafR / trafH, nil
}

// summaryPoints is the Sec. VI-B grid exp.Summary primes at max cores mc:
// every coarse-grain benchmark under Random@1, Random@mc, Hints@mc and
// LBHints@mc, and every fine-grain variant under Random@1, Hints@mc and
// LBHints@mc.
func summaryPoints(mc int) []gridPoint {
	var pts []gridPoint
	for _, n := range bench.Names() {
		pts = append(pts, gridPoint{n, swarm.Random, 1}, gridPoint{n, swarm.Random, mc},
			gridPoint{n, swarm.Hints, mc}, gridPoint{n, swarm.LBHints, mc})
	}
	for _, n := range bench.FGNames() {
		n += "-fg"
		pts = append(pts, gridPoint{n, swarm.Random, 1}, gridPoint{n, swarm.Hints, mc},
			gridPoint{n, swarm.LBHints, mc})
	}
	return pts
}

// gridPoint is one (benchmark, scheduler, cores) configuration.
type gridPoint struct {
	name  string
	kind  swarm.SchedKind
	cores int
}

// checkConservation verifies the engine's core-time invariant on a result:
// commit, abort, stall and empty cycles partition Cores×Cycles exactly.
func checkConservation(st *swarm.Stats) error {
	if got, want := st.Breakdown.CoreTotal(), uint64(st.Cores)*st.Cycles; got != want {
		return fmt.Errorf("core cycles %d != cores×cycles %d", got, want)
	}
	return nil
}
