package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/internal/obs"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// params fixes a workload's open-loop phases.
type params struct {
	refRate float64       // reference rate, requests/s: run_* and sweep_* are read here
	refDur  time.Duration // reference phase length
	limit   time.Duration // p99 limit a ladder step must meet
	ladder  ladder
	probes  int           // ladder steps probed by bisection
	stepDur time.Duration // length of one ladder step
}

// Sweep shares of the cold mixes.
const (
	regenSweepEvery = 10
	coldSweepEvery  = 10
)

// settle is the idle pause before each ladder try.
const settle = 250 * time.Millisecond

// warmupDur is the untimed open-loop phase before the reference phase:
// connections open, the LRU fills with the popular keys, and the
// gateway's hedge-delay estimate settles.
const warmupDur = 1500 * time.Millisecond

// Phase settings for the default 38 s budget; --seconds scales the
// reference phase and the ladder steps. Every reference phase holds at
// least one window of 1000 runs and 100 sweeps, so the traced run's
// load.run_p99_ms and load.sweep_p90_ms each have ten samples beyond them
// (serve-warm holds two). The reference rates sit at a fifth (regen,
// serve-cold) and a tenth (serve-warm) of max_rps: the generator's nproc
// connections are a queue of their own, and at twice these rates a few
// percent of CPU stolen by the host turned into queueing that moved the
// medians by half from one run to the next.
var (
	regenParams = params{refRate: 100, refDur: 12 * time.Second, limit: time.Second,
		ladder: ladder{base: 200, growth: 1.05, steps: 31}, probes: 5, stepDur: 1250 * time.Millisecond}
	coldParams = params{refRate: 60, refDur: 25600 * time.Millisecond, limit: time.Second,
		ladder: ladder{base: 120, growth: 1.05, steps: 31}, probes: 5, stepDur: 1250 * time.Millisecond}
	warmParams = params{refRate: 200, refDur: 14 * time.Second, limit: 100 * time.Millisecond,
		ladder: ladder{base: 600, growth: 1.05, steps: 31}, probes: 5, stepDur: 1250 * time.Millisecond}
)

// defaultBudget is the --seconds the phase settings are written for.
const defaultBudget = 38 * time.Second

// requests runs the open-loop phases against a target. Untraced: a warm-up,
// the reference phase at a fixed rate (run_p50_ms, sweep_p50_ms) and a
// bisection of the rate ladder (max_rps). Traced: the reference phase in
// chunks that alternate tracing off and on, for obs.overhead_frac and the
// tail latencies; afterTraced runs after each traced chunk.
func (b *benchRun) requests(ctx context.Context, t target, newMix func(seed int64) mix, p params, afterTraced func() error) error {
	m := newMix(b.seed)
	scale := float64(b.budget) / float64(defaultBudget)
	p.refDur = time.Duration(float64(p.refDur) * scale)
	p.stepDur = time.Duration(float64(p.stepDur) * scale)
	phase := func(rate float64, dur, giveUp time.Duration) []sample {
		s := openLoop(ctx, schedule(m, rate, dur), b.conns, giveUp, t.do)
		for _, x := range s {
			if !x.dropped {
				b.attempted.Add(1)
			}
		}
		return s
	}
	phase(p.refRate, warmupDur, 0)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if b.traced {
		return b.tracedReference(ctx, phase, p, afterTraced)
	}
	// peak_heap_mb covers the reference phase only. The regen grid runs a
	// handful of GC cycles, and its peak depends on whether one happens to
	// find two big 256-core points running together (350 MB or 560 MB
	// live on the same input); serve-warm's set-up is a one-off
	// pre-population; and the ladder's load depends on where its
	// bisection goes.
	b.heap.reset()
	ref := phase(p.refRate, p.refDur, 0)
	b.set("peak_heap_mb", b.heap.peak())
	runs, sweeps := latencies(ref, false), latencies(ref, true)
	p50, _ := percentile(runs, 0.5)
	s50, _ := percentile(sweeps, 0.5)
	b.set("run_p50_ms", p50)
	b.set("sweep_p50_ms", s50)
	var late []float64
	for _, s := range ref {
		late = append(late, ms(s.late()))
	}
	b.lateP99, _ = percentile(late, 0.99)
	p99, _ := windowedPercentile(runs, 0.99)
	s90, _ := windowedPercentile(sweeps, 0.9)
	fmt.Fprintf(os.Stderr, "reference %.0f/s: %d runs p50 %.3f p99 %.3f ms, %d sweeps p50 %.3f p90 %.3f ms\n",
		p.refRate, len(runs), p50, p99, len(sweeps), s50, s90)

	// A step that fails is tried once more, and passes if either try
	// does: a burst of steal from a neighbour on a shared host fails one
	// try, while a rate beyond capacity fails both. Each try starts after
	// a pause that lets work the last one left behind (hedges, queued
	// points) finish.
	achieved := map[int]float64{}
	top := p.ladder.highestPassing(p.probes, func(k int) bool {
		for try := 0; try < 2; try++ {
			select {
			case <-time.After(settle):
			case <-ctx.Done():
				return false
			}
			s := phase(p.ladder.rate(k), p.stepDur, p.limit)
			pass, why := stepVerdict(s, p.limit)
			q99, _ := percentile(latencies(s, false), 0.99)
			fmt.Fprintf(os.Stderr, "ladder step %d (%.1f/s): pass=%v %s (run p99 %.3f ms)\n", k, p.ladder.rate(k), pass, why, q99)
			if pass {
				achieved[k] = achievedRate(s)
				return true
			}
		}
		return false
	})
	if top < 0 {
		return fmt.Errorf("no ladder step from %.1f/s met the %v p99 limit", p.ladder.rate(0), p.limit)
	}
	b.set("max_rps", achieved[top])
	return ctx.Err()
}

// tracedChunk is how long each alternating chunk of the traced reference
// phase runs: short enough that a traced chunk's spans fit the 4096-span
// ring before they are fetched. serve-warm, the busiest, published about
// 3000 spans a second at 400/s, twice its reference rate (a hedged 8-point
// sweep alone publishes ~28).
const tracedChunk = 500 * time.Millisecond

func (b *benchRun) tracedReference(ctx context.Context, phase func(rate float64, dur, giveUp time.Duration) []sample, p params, afterTraced func() error) error {
	var off, on []float64
	var late, runs, sweeps []float64
	for i := 0; i < int(p.refDur/tracedChunk); i++ {
		traced := i%2 == 1
		obs.SetEnabled(traced)
		s := phase(p.refRate, tracedChunk, 0)
		for _, x := range s {
			late = append(late, ms(x.late()))
		}
		runs = append(runs, latencies(s, false)...)
		sweeps = append(sweeps, latencies(s, true)...)
		if traced {
			on = append(on, latencies(s, false)...)
			if afterTraced != nil {
				if err := afterTraced(); err != nil {
					return err
				}
			}
		} else {
			off = append(off, latencies(s, false)...)
		}
	}
	obs.SetEnabled(true)
	b.lateP99, _ = percentile(late, 0.99)
	p99, ok99 := windowedPercentile(runs, 0.99)
	s90, ok90 := windowedPercentile(sweeps, 0.9)
	if !ok99 || !ok90 {
		return fmt.Errorf("reference phase too short: %d runs (p99 needs %d), %d sweeps (p90 needs %d)",
			len(runs), minSamples(0.99), len(sweeps), minSamples(0.9))
	}
	b.set("load.run_p99_ms", p99)
	b.set("load.sweep_p90_ms", s90)
	if m := median(off); m > 0 {
		b.set("obs.overhead_frac", median(on)/m-1)
	}
	return ctx.Err()
}

// target answers one open-loop request, checking its output.
type target interface {
	do(ctx context.Context, r request) error
}

// freshBase is where a run's never-seen input seeds start, far from the
// paper seed and disjoint between --seed values below 2^24.
func freshBase(seed int64) int64 { return 1_000_000 * (1 + seed&0xffffff) }

// serve runs a serving workload on an in-process fleet: warm answers from
// pre-populated tiers only, cold sees every configuration for the first
// time.
func (b *benchRun) serve(ctx context.Context, warm bool) error {
	fresh := freshBase(b.seed)
	var f *fleet
	var keys []runKey
	var walls []float64
	var grid map[gridPoint]*swarm.Stats
	// timedGrid regenerates the tiny Sec. VI-B grid through the fleet at
	// the paper seed, adding its wall time to walls.
	timedGrid := func() error {
		t := time.Now()
		stats, err := b.fleetGrid(ctx, f, paperSeed)
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(t).Seconds())
		grid = stats
		return nil
	}
	var setupRuns uint64 // engine runs when set-up ended
	var err error
	if warm {
		t := time.Now()
		if f, err = startFleet(ctx, b.subdir("store"), b.conns); err != nil {
			return err
		}
		defer f.close()
		if keys, err = b.prepopulate(ctx, f, fresh); err != nil {
			return err
		}
		b.set("setup_s", time.Since(t).Seconds())
		fresh += int64(len(keys))
		if setupRuns, err = f.engineRuns(ctx); err != nil {
			return err
		}
		// Collect pre-population's garbage first: otherwise whether a GC
		// cycle over the ~300 MB heap overlaps the timed grids decides
		// regen_s, and it did so differently from run to run.
		runtime.GC()
		for i := 0; i < 25; i++ {
			if err := timedGrid(); err != nil {
				return err
			}
		}
	} else {
		// Set-up is a cold start: a fleet on an empty store, until it has
		// answered its first run (sssp under Stealing, outside the grid).
		// That takes a few milliseconds, so take the median of 41. The
		// first eleven fleets each regenerate the grid cold (regen_s is
		// their median); the last one serves the request phase.
		first := runKey{bench: "sssp", kind: swarm.Stealing, cores: 4, seed: paperSeed}
		var setups []float64
		for i := 0; i < 41; i++ {
			t := time.Now()
			if f, err = startFleet(ctx, b.subdir(fmt.Sprintf("store%d", i)), b.conns); err != nil {
				return err
			}
			b.attempted.Add(1)
			if _, _, err := f.run(ctx, first); err != nil {
				f.close()
				return b.fail("first run: %v", err)
			}
			setups = append(setups, time.Since(t).Seconds())
			if i < 11 {
				runtime.GC() // each cold grid starts from the same heap
				if err := timedGrid(); err != nil {
					f.close()
					return err
				}
			}
			if i < 40 {
				f.close()
			}
		}
		defer f.close()
		b.set("setup_s", median(setups))
	}
	if err := b.gridMetrics(grid, tinyMaxCores); err != nil {
		return err
	}
	b.set("regen_s", median(walls))
	fmt.Fprintf(os.Stderr, "grid: %d regenerations, median %.3f s (%.3f to %.3f)\n",
		len(walls), median(walls), sorted(walls)[0], sorted(walls)[len(walls)-1])

	tg := &fleetTarget{b: b, f: f, bodies: map[runKey][]byte{}, sampleEvery: 97}
	var lt *layerTimes
	var afterTraced func() error
	if b.traced {
		tg.traces = &traceLog{}
		lt = newLayerTimes()
		afterTraced = func() error {
			for _, tr := range tg.traces.drain() {
				spans, err := f.fetchTrace(ctx, tr.id)
				if err != nil {
					return b.fail("fetching trace: %v", err)
				}
				lt.add(spans, tr.sweep)
			}
			return nil
		}
	}
	newMix := func(seed int64) mix { return newColdMix(seed, &fresh, coldSweepEvery) }
	p := coldParams
	if warm {
		newMix = func(seed int64) mix { return newWarmMix(seed, keys) }
		p = warmParams
	}
	pre, err := f.read(ctx)
	if err != nil {
		return err
	}
	sent0, gc0 := b.attempted.Load(), readGC()
	f.decodeMu.Lock()
	f.record = true
	f.decodeMu.Unlock()
	if err := b.requests(ctx, tg, newMix, p, afterTraced); err != nil {
		return err
	}
	sent, gc1 := b.attempted.Load()-sent0, readGC()
	r1, err := f.read(ctx)
	if err != nil {
		return err
	}
	if warm && r1.engineRuns() != setupRuns {
		b.fail("serve-warm ran the engine %d times after set-up", r1.engineRuns()-setupRuns)
	}
	tg.checkBodies()
	if b.traced {
		b.fleetLayers(f, pre, r1, lt, sent)
		b.set("go.gc_cpu_frac", gc1.gcFrac(gc0))
		if warm {
			b.zero("engine.run_s")
		} else {
			b.set("engine.run_s", lt.total["swarmd.execute"].Seconds())
		}
		sample := keys
		if !warm {
			cold := newColdMix(b.seed+1, &fresh, coldSweepEvery)
			sample = nil
			for len(sample) < engineSample {
				sample = append(sample, cold.nextKey())
			}
		}
		if err := b.sampleEngine(ctx, sample); err != nil {
			return err
		}
	}
	return nil
}

// fleetGrid requests the tiny Sec. VI-B grid at seed as its four sweeps and
// returns the records as statistics by grid point.
func (b *benchRun) fleetGrid(ctx context.Context, f *fleet, seed int64) (map[gridPoint]*swarm.Stats, error) {
	stats := make(map[gridPoint]*swarm.Stats)
	for _, req := range summarySweeps(seed) {
		b.attempted.Add(1)
		recs, _, err := f.sweep(ctx, req)
		if err != nil {
			return nil, b.fail("grid sweep %v: %v", req.Benches, err)
		}
		for _, rec := range recs {
			st := swarm.StatsFromSnapshot(rec.Snapshot)
			kind, err := parseKind(rec.Labels["sched"])
			if err != nil {
				return nil, b.fail("grid record: %v", err)
			}
			stats[gridPoint{rec.Labels["bench"], kind, st.Cores}] = st
		}
	}
	if want := len(summaryPoints(tinyMaxCores)); len(stats) != want {
		return nil, b.fail("grid answered %d points, want %d", len(stats), want)
	}
	return stats, nil
}

// parseKind maps a record's sched label (the paper's legend spelling) back
// to its scheduler.
func parseKind(label string) (swarm.SchedKind, error) {
	for _, k := range []swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints, swarm.LBIdleProxy} {
		if k.String() == label {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown sched label %q", label)
}

// warmSeeds is how many input seeds the serve-warm key set spans: 7 seeds
// of the 156-configuration mix make 1092 keys, four times the LRU.
const warmSeeds = 7

// prepopulate computes every serve-warm key through the fleet, as
// /v1/sweep requests, so the store holds them all: the run keys, the
// Sec. VI-B grid and the fig2-tiny grid at the paper seed.
func (b *benchRun) prepopulate(ctx context.Context, f *fleet, fresh int64) ([]runKey, error) {
	var reqs []api.SweepRequest
	var keys []runKey
	for j := int64(1); j <= warmSeeds; j++ {
		s := fresh + j
		reqs = append(reqs, api.SweepRequest{Benches: bench.AllNames(), Scheds: schedFlags(mixScheds),
			Cores: mixCores, Scale: "tiny", Seed: &s})
		for _, n := range bench.AllNames() {
			for _, k := range mixScheds {
				for _, c := range mixCores {
					keys = append(keys, runKey{n, k, c, s})
				}
			}
		}
	}
	reqs = append(reqs, summarySweeps(paperSeed)...)
	reqs = append(reqs, fig2Sweep(warmSweepBench, paperSeed))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	work := make(chan api.SweepRequest)
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				if _, _, err := f.sweep(ctx, req); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("pre-populating: %w", err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, r := range reqs {
		work <- r
	}
	close(work)
	wg.Wait()
	return keys, firstErr
}

// fleetLayers records the gateway, swarmd, store and client layers between
// two fleet readings, with per-layer self time from the fetched traces.
func (b *benchRun) fleetLayers(f *fleet, a, z fleetReading, lt *layerTimes, sent int64) {
	var hits, storeHits, misses, coalesced, shed, reads, writes uint64
	var bytes, records int64
	for i := range a.svc {
		hits += z.svc[i].Hits - a.svc[i].Hits
		storeHits += z.svc[i].Store.Hits - a.svc[i].Store.Hits
		misses += z.svc[i].Misses - a.svc[i].Misses
		coalesced += z.svc[i].Coalesced - a.svc[i].Coalesced
		shed += z.svc[i].Shed - a.svc[i].Shed
		reads += z.store[i].Hits + z.store[i].Misses - a.store[i].Hits - a.store[i].Misses
		writes += z.store[i].Writes - a.store[i].Writes
		bytes += z.store[i].Bytes
		records += z.store[i].Records
	}
	frac := func(x uint64) float64 {
		if n := hits + storeHits + misses + coalesced; n > 0 {
			return float64(x) / float64(n)
		}
		return 0
	}
	b.set("swarmd.lru_hit_frac", frac(hits))
	b.set("swarmd.store_hit_frac", frac(storeHits))
	b.set("swarmd.coalesced_hit_frac", frac(coalesced))
	b.set("swarmd.engine_runs", float64(z.engineRuns()-a.engineRuns()))
	b.set("swarmd.shed", float64(shed))
	for _, stage := range []string{"parse", "cache", "store", "coalesce", "execute"} {
		b.set("swarmd."+stage+"_ms", histMean(a, z, "swarmd_stage_duration_seconds", `stage="`+stage+`"`, replicas))
	}
	for _, op := range []string{"read", "write", "fsync"} {
		b.set("store."+op+"_ms", histMean(a, z, "swarmd_store_op_duration_seconds", `op="`+op+`"`, 1))
	}
	b.set("store.reads", float64(reads))
	b.set("store.writes", float64(writes))
	if records > 0 {
		b.set("store.bytes_per_record", float64(bytes)/float64(records))
	}
	var routed, retried uint64
	for u := range z.gate.Routed {
		routed += z.gate.Routed[u] - a.gate.Routed[u]
		retried += z.gate.Retried[u] - a.gate.Retried[u]
	}
	b.set("gate.retries", float64(retried))
	b.set("gate.attempt_ms", lt.meanMs("gate.attempt"))
	b.set("gate.self_ms", lt.perRequestMs("swarmgate.run", "swarmgate.sweep", "gate.attempt"))
	b.set("swarmd.self_ms", lt.perRequestMs("swarmd.run", "swarmd.sweep"))
	if lt.sweeps > 0 {
		b.set("gate.upstream_requests_per_sweep", float64(lt.sweepAttempts)/float64(lt.sweeps))
	}
	if sent > 0 {
		// Counters cover the untraced chunks too: divide by every request
		// the phase sent, not only the traced ones.
		b.set("gate.attempts_per_request", float64(routed)/float64(sent))
	}
	f.decodeMu.Lock()
	b.set("client.decode_ms", median(f.decode))
	f.decodeMu.Unlock()
	b.zero("runner.busy_frac", "runner.tail_s") // swarmd runs points without the sweep runner
}

// engineSample is how many of a serve workload's configurations
// sampleEngine times in-process.
const engineSample = 40

// sampleEngine times bench.Build, Program.Run and Instance.Validate
// in-process over a sample of a serve workload's run configurations, and
// ExportSet plus encoding over the fig2-tiny grid: the per-request engine,
// input and export costs behind the fleet's answers.
func (b *benchRun) sampleEngine(ctx context.Context, keys []runKey) error {
	if len(keys) > engineSample {
		step := len(keys) / engineSample
		var picked []runKey
		for i := 0; i < engineSample; i++ {
			picked = append(picked, keys[i*step])
		}
		keys = picked
	}
	var build, run, validate time.Duration
	var attempts uint64
	a0 := readGC()
	for _, k := range keys {
		t0 := time.Now()
		inst, err := bench.Build(k.bench, bench.Tiny, k.seed)
		if err != nil {
			return err
		}
		cfg := swarm.ScaledConfig().WithCores(k.cores)
		cfg.Scheduler = k.kind
		cfg.MaxCycles = exp.MaxPointCycles
		t1 := time.Now()
		st, err := inst.Prog.Run(cfg)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if err := inst.Validate(); err != nil {
			return b.fail("sampled run %v: %v", k, err)
		}
		build, run, validate = build+t1.Sub(t0), run+t2.Sub(t1), validate+time.Since(t2)
		attempts += st.CommittedTasks + st.AbortedAttempts
	}
	a1 := readGC()
	n := float64(len(keys))
	b.set("bench.build_ms", ms(build)/n)
	b.set("bench.validate_ms", ms(validate)/n)
	b.set("engine.ns_per_attempt", float64(run.Nanoseconds())/float64(attempts))
	b.set("engine.alloc_bytes_per_attempt", float64(a1.allocBytes-a0.allocBytes)/float64(attempts))

	r := exp.NewRunner(exp.Options{Scale: bench.Tiny, Seed: paperSeed, Validate: true, Parallel: 1})
	if err := r.PrimeGrid(ctx, []string{warmSweepBench}, fig2Kinds, fig2Cores, false); err != nil {
		return err
	}
	x, err := exportMs(exp.Grid([]string{warmSweepBench}, fig2Kinds, fig2Cores, false), bench.Tiny, paperSeed,
		func(p exp.Point) *swarm.Stats {
			st, _ := r.Run(ctx, p.Name, p.Kind, p.Cores, false)
			return st
		}, 20)
	if err != nil {
		return err
	}
	b.set("metrics.export_ms", x)
	return nil
}
