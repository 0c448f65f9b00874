package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/swarm"
)

// runKey is one tiny-scale /v1/run configuration.
type runKey struct {
	bench string
	kind  swarm.SchedKind
	cores int
	seed  int64
}

// request is one scheduled operation of an open-loop phase: a single run,
// or a fig2-shaped sweep (sweepBench under every scheduler at 1 and 4
// cores) at sweepSeed.
type request struct {
	at         time.Duration
	sweep      bool
	key        runKey
	sweepBench string
	sweepSeed  int64
}

// Request-mix dimensions. 64-core tiny runs are left out of the run keys:
// they cost 5-10x a 16-core run and would make the engine, not the
// serving path, the whole of a request. Cold runs also leave out 16 cores,
// so a reference phase can hold a 1000-run window (see windowedPercentile)
// at a fifth of capacity.
var (
	mixScheds = []swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints}
	mixCores  = []int{1, 4, 16}
	coldCores = []int{1, 4}
	fig2Kinds = []swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints}
	fig2Cores = []int{1, 4}
)

// Sweep benchmarks. Warm sweeps are the fig2-tiny grid itself (des). Cold
// sweeps keep its shape but sweep sssp, whose tiny runs cost 1.6 ms where
// des's cost 11 ms: with des, sweeps alone would take 70% of the engine
// time and the reference rate would sit near saturation.
const (
	warmSweepBench = "des"
	coldSweepBench = "sssp"
)

// paperSeed is the harness's default input seed (cmd/experiments -seed):
// the paper grids are regenerated at it, so the three paper ratios are the
// same numbers on every run.
const paperSeed = 7

// mix draws the requests of a workload. next is called from one goroutine
// with consecutive indices.
type mix interface {
	next(i int) request
}

// twinEvery sets the cold mixes' twin share: every twinEvery-th run has a
// twin.
const twinEvery = 10

// isSweep reports whether request i of a phase is a sweep: every
// every-th request is, so a phase of n requests holds exactly n/every.
func isSweep(i, every int) bool { return i%every == every-1 }

// coldMix draws configurations no fleet has seen, at fresh input seeds.
// Runs deal out a shuffled deck of every benchmark × scheduler × core
// count, so each stretch of 104 runs holds each configuration once and two
// seeds differ in order, not in mix. Every twinEvery-th run is followed by
// a twin of the same key sent at the same instant, so the second can
// coalesce onto the first's in-flight run. Every sweepEvery-th request is
// a fig2-shaped sssp sweep.
type coldMix struct {
	rng        *rand.Rand
	fresh      *int64 // last fresh seed handed out, shared by every phase
	sweepEvery int
	deck       []runKey
	runs       int
}

func newColdMix(seed int64, fresh *int64, sweepEvery int) *coldMix {
	return &coldMix{rng: rand.New(rand.NewSource(seed)), fresh: fresh, sweepEvery: sweepEvery}
}

func (m *coldMix) freshSeed() int64 {
	*m.fresh++
	return *m.fresh
}

func (m *coldMix) next(i int) request {
	if isSweep(i, m.sweepEvery) {
		return request{sweep: true, sweepBench: coldSweepBench, sweepSeed: m.freshSeed()}
	}
	return request{key: m.nextKey()}
}

func (m *coldMix) nextKey() runKey {
	if len(m.deck) == 0 {
		for _, n := range bench.AllNames() {
			for _, k := range mixScheds {
				for _, c := range coldCores {
					m.deck = append(m.deck, runKey{bench: n, kind: k, cores: c})
				}
			}
		}
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	k := m.deck[0]
	m.deck = m.deck[1:]
	k.seed = m.freshSeed()
	return k
}

// warmMix draws from a fixed key set with Zipf popularity (rank order is a
// seeded permutation of the keys); sweeps are the fig2-tiny grid at the
// paper seed, which set-up pre-populated.
type warmMix struct {
	rng  *rand.Rand
	keys []runKey
	zipf *rand.Zipf
}

// zipfS is the popularity skew: with the key set four times the LRU, about
// five in six runs hit a key the LRU can hold and the rest read the store.
const zipfS = 1.1

func newWarmMix(seed int64, keys []runKey) *warmMix {
	rng := rand.New(rand.NewSource(seed))
	ranked := append([]runKey(nil), keys...)
	rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	return &warmMix{rng: rng, keys: ranked, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(ranked)-1))}
}

// warmSweepEvery makes every tenth serve-warm request a sweep.
const warmSweepEvery = 10

func (m *warmMix) next(i int) request {
	if isSweep(i, warmSweepEvery) {
		return request{sweep: true, sweepBench: warmSweepBench, sweepSeed: paperSeed}
	}
	return request{key: m.keys[m.zipf.Uint64()]}
}

// schedule lays out rate×dur requests at a constant rate: request i is due
// at i/rate. In a cold mix every twinEvery-th run is followed by its twin,
// due at the same instant.
func schedule(m mix, rate float64, dur time.Duration) []request {
	n := int(rate*dur.Seconds() + 0.5)
	reqs := make([]request, 0, n+n/twinEvery)
	for i := 0; i < n; i++ {
		r := m.next(i)
		r.at = time.Duration(float64(i) / rate * float64(time.Second))
		reqs = append(reqs, r)
		if c, ok := m.(*coldMix); ok && !r.sweep {
			if c.runs++; c.runs%twinEvery == 0 {
				reqs = append(reqs, r)
			}
		}
	}
	return reqs
}

// openLoop sends reqs on their schedule from conns sender goroutines (one
// connection each) and returns every request's timeline. Each request is
// timed from when it was due, not from when a sender got to it, so a stall
// counts against every request it delays. do returns a non-nil error for a
// failed request or a wrong answer. With giveUp > 0, once a request would
// be sent more than giveUp late the phase stops sending: that request and
// every later one are returned as dropped, so an overloaded ladder step
// ends instead of draining its backlog.
func openLoop(ctx context.Context, reqs []request, conns int, giveUp time.Duration, do func(context.Context, request) error) []sample {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var gaveUp atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if d := time.Until(start.Add(r.at)); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
					}
				}
				sent := time.Since(start)
				if giveUp > 0 && (gaveUp.Load() || sent-r.at > giveUp) {
					gaveUp.Store(true)
					samples[i] = sample{sched: r.at, sent: sent, done: sent, sweep: r.sweep, dropped: true}
					continue
				}
				err := do(ctx, r)
				samples[i] = sample{sched: r.at, sent: sent, done: time.Since(start),
					sweep: r.sweep, failed: err != nil}
			}
		}()
	}
	wg.Wait()
	return samples
}

// latencies returns the latencies (ms) of the runs or of the sweeps among
// samples; failed and dropped requests are left out.
func latencies(samples []sample, sweeps bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.sweep == sweeps && !s.failed && !s.dropped {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
