package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/swarm"
)

// pointTiming is one grid point's host time, split by layer, on the grid's
// clock.
type pointTiming struct {
	build, run, validate time.Duration
	at                   span
}

// gridRun is one regeneration of the Sec. VI-B grid.
type gridRun struct {
	wall     time.Duration
	stats    map[gridPoint]*swarm.Stats
	timings  []pointTiming
	parallel int
	summary  string // exp.Summary's printed table (in-process grids only)
}

// regenGrid regenerates the paper's Sec. VI-B summary at small scale and
// 256 cores: exp.Summary over an exp.Runner whose executor times each
// point's bench.Build, Program.Run and Instance.Validate. The executor
// mirrors exp.RunPoint step for step; checkRunPoint holds it to that.
func regenGrid(ctx context.Context, parallel int) (*gridRun, error) {
	opt := exp.DefaultOptions(bench.Small)
	opt.Seed = paperSeed
	opt.Parallel = parallel
	g := &gridRun{parallel: parallel, stats: make(map[gridPoint]*swarm.Stats)}
	var mu sync.Mutex
	start := time.Now()
	opt.Exec = func(_ context.Context, p exp.Point) (*swarm.Stats, error) {
		t0 := time.Now()
		inst, err := bench.Build(p.Name, opt.Scale, opt.Seed)
		if err != nil {
			return nil, err
		}
		cfg := swarm.ScaledConfig().WithCores(p.Cores)
		cfg.Scheduler = p.Kind
		cfg.Profile = p.Profile
		cfg.MaxCycles = exp.MaxPointCycles
		t1 := time.Now()
		st, err := inst.Prog.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s under %v at %d cores: %w", p.Name, p.Kind, p.Cores, err)
		}
		t2 := time.Now()
		if err := inst.Validate(); err != nil {
			return nil, fmt.Errorf("%s under %v at %d cores failed validation: %w", p.Name, p.Kind, p.Cores, err)
		}
		t3 := time.Now()
		mu.Lock()
		g.timings = append(g.timings, pointTiming{build: t1.Sub(t0), run: t2.Sub(t1), validate: t3.Sub(t2),
			at: span{t0.Sub(start), t3.Sub(start)}})
		g.stats[gridPoint{p.Name, p.Kind, p.Cores}] = st
		mu.Unlock()
		return st, nil
	}
	r := exp.NewRunner(opt)
	var out bytes.Buffer
	if err := exp.Summary(ctx, r, &out); err != nil {
		return nil, err
	}
	g.wall = time.Since(start)
	g.summary = out.String()
	return g, nil
}

// checkSummaryText holds the benchmark's ratios to exp.Summary's printed
// ones at the precision Summary prints them.
func checkSummaryText(text string, speedup, wasted, traffic float64) error {
	for _, want := range []string{
		fmt.Sprintf("gmean ratio: %.2fx", speedup),
		fmt.Sprintf("(aborted cycles, Random/Hints): %.1fx", wasted),
		fmt.Sprintf("traffic reduction (Random/Hints): %.1fx", traffic),
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("exp.Summary output lacks %q:\n%s", want, text)
		}
	}
	return nil
}

// checkRunPoint compares the timing executor's result for the cheapest
// grid point with exp.RunPoint's, byte for byte.
func checkRunPoint(g *gridRun) error {
	p := exp.Point{Name: "nocsim", Kind: swarm.Random, Cores: 1}
	want, err := exp.RunPoint(p, bench.Small, paperSeed, true)
	if err != nil {
		return err
	}
	got := g.stats[gridPoint{p.Name, p.Kind, p.Cores}]
	if got == nil {
		return fmt.Errorf("grid lacks %s", p.Key())
	}
	a, err := exportBytes(p, bench.Small, paperSeed, got)
	if err != nil {
		return err
	}
	b, err := exportBytes(p, bench.Small, paperSeed, want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("timed executor's %s differs from exp.RunPoint's", p.Key())
	}
	return nil
}

// exportBytes is a point's canonical single-record export: the bytes
// swarmd answers /v1/run with.
func exportBytes(p exp.Point, scale bench.Scale, seed int64, st *swarm.Stats) ([]byte, error) {
	rs := exp.ExportSet([]exp.Point{p}, scale, seed, func(exp.Point) *swarm.Stats { return st })
	var buf bytes.Buffer
	err := rs.WriteJSON(&buf)
	return buf.Bytes(), err
}

// exportMs times exp.ExportSet plus JSON encoding over a set of points,
// in ms per export (median of reps).
func exportMs(points []exp.Point, scale bench.Scale, seed int64, get func(exp.Point) *swarm.Stats, reps int) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := exp.ExportSet(points, scale, seed, get).WriteJSON(io.Discard); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t)))
	}
	return median(xs), nil
}

// engineTarget serves the open-loop requests in-process, straight from the
// engine: exp.RunPoint for a run and an exp.Runner over the sweep's grid. It is the floor the serving stack adds its cost to.
type engineTarget struct {
	b *benchRun
}

func (t engineTarget) do(ctx context.Context, r request) error {
	if r.sweep {
		opt := exp.Options{Scale: bench.Tiny, Seed: r.sweepSeed, Validate: true, Parallel: 1}
		run := exp.NewRunner(opt)
		if err := run.PrimeGrid(ctx, []string{r.sweepBench}, fig2Kinds, fig2Cores, false); err != nil {
			return t.b.fail("sweep seed %d: %v", r.sweepSeed, err)
		}
		rs := run.Export()
		if want := len(fig2Kinds) * len(fig2Cores); len(rs.Records) != want {
			return t.b.fail("sweep seed %d: %d records, want %d", r.sweepSeed, len(rs.Records), want)
		}
		for _, rec := range rs.Records {
			if err := checkConservation(swarm.StatsFromSnapshot(rec.Snapshot)); err != nil {
				return t.b.fail("sweep seed %d: %v", r.sweepSeed, err)
			}
		}
		return nil
	}
	k := r.key
	st, err := exp.RunPoint(exp.Point{Name: k.bench, Kind: k.kind, Cores: k.cores}, bench.Tiny, k.seed, true)
	if err != nil {
		return t.b.fail("run %v: %v", k, err)
	}
	if err := checkConservation(st); err != nil {
		return t.b.fail("run %v: %v", k, err)
	}
	return nil
}

// regen is the batch workload: the Sec. VI-B grid at small scale through
// exp.Runner, then the cold request mix answered in-process by the engine.
func (b *benchRun) regen(ctx context.Context) error {
	var setups []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		for _, name := range bench.AllNames() {
			if _, err := bench.Build(name, bench.Small, paperSeed); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	b.set("setup_s", median(setups))
	runtime.GC()

	gc0 := readGC()
	g, err := regenGrid(ctx, b.conns)
	if err != nil {
		return b.fail("grid: %v", err)
	}
	gc1 := readGC()
	b.attempted.Add(int64(len(g.stats)))
	if err := b.gridMetrics(g.stats, swarm.ScaledConfig().WithCores(256).Cores()); err != nil {
		return err
	}
	b.set("regen_s", g.wall.Seconds())
	if err := checkSummaryText(g.summary, b.m["speedup_ratio"], b.m["wasted_work_reduction"], b.m["traffic_reduction"]); err != nil {
		b.fail("%v", err)
	}
	if err := checkRunPoint(g); err != nil {
		b.fail("%v", err)
	}
	if b.traced {
		b.engineLayers(g, gc0, gc1)
		var pts []exp.Point
		for p := range g.stats {
			pts = append(pts, exp.Point{Name: p.name, Kind: p.kind, Cores: p.cores})
		}
		x, err := exportMs(pts, bench.Small, paperSeed, func(p exp.Point) *swarm.Stats {
			return g.stats[gridPoint{p.Name, p.Kind, p.Cores}]
		}, 5)
		if err != nil {
			return err
		}
		b.set("metrics.export_ms", x)
		b.zero("gate.attempts_per_request", "gate.upstream_requests_per_sweep", "gate.retries",
			"gate.attempt_ms", "gate.self_ms", "swarmd.lru_hit_frac", "swarmd.store_hit_frac",
			"swarmd.coalesced_hit_frac", "swarmd.engine_runs", "swarmd.shed", "swarmd.parse_ms",
			"swarmd.cache_ms", "swarmd.store_ms", "swarmd.coalesce_ms", "swarmd.execute_ms",
			"swarmd.self_ms", "store.read_ms", "store.write_ms", "store.fsync_ms", "store.reads",
			"store.writes", "store.bytes_per_record", "client.decode_ms")
	}
	fresh := freshBase(b.seed)
	return b.requests(ctx, engineTarget{b}, func(seed int64) mix {
		return newColdMix(seed, &fresh, regenSweepEvery)
	}, regenParams, nil)
}

// gridMetrics records the three paper ratios and the modelled-component
// counters of one grid, after checking every point's conservation law.
func (b *benchRun) gridMetrics(stats map[gridPoint]*swarm.Stats, mc int) error {
	for p, st := range stats {
		if err := checkConservation(st); err != nil {
			b.fail("grid point %v: %v", p, err)
		}
	}
	speedup, wasted, traffic, err := paperRatios(stats, mc)
	if err != nil {
		return b.fail("paper ratios: %v", err)
	}
	b.set("speedup_ratio", speedup)
	b.set("wasted_work_reduction", wasted)
	b.set("traffic_reduction", traffic)
	var sts []*swarm.Stats
	for _, st := range stats {
		sts = append(sts, st)
	}
	b.simCounters(sts)
	return nil
}

// simCounters records the modelled components' counters summed over a set
// of results. They depend only on the simulated configurations, so a
// host-only change leaves them exactly equal.
func (b *benchRun) simCounters(sts []*swarm.Stats) {
	c := map[string]uint64{}
	for _, st := range sts {
		c["sim.cycles"] += st.Cycles
		c["sim.committed_tasks"] += st.CommittedTasks
		c["sim.aborted_tasks"] += st.AbortedAttempts
		c["sim.squashed_tasks"] += st.SquashedTasks
		c["sim.spilled_tasks"] += st.SpilledTasks
		c["sim.stolen_tasks"] += st.StolenTasks
		c["sim.gvt_rounds"] += st.GVTRounds
		c["sim.conflict_comparisons"] += st.Comparisons
		c["sim.flits_mem"] += st.Traffic[0]
		c["sim.flits_abort"] += st.Traffic[1]
		c["sim.flits_task"] += st.Traffic[2]
		c["sim.flits_gvt"] += st.Traffic[3]
		c["sim.commit_cycles"] += st.Breakdown.Commit
		c["sim.abort_cycles"] += st.Breakdown.Abort
		c["sim.stall_cycles"] += st.Breakdown.Stall
		c["sim.empty_cycles"] += st.Breakdown.Empty
		c["sim.spill_cycles"] += st.Breakdown.Spill
		for _, t := range st.Tiles {
			c["sim.l1_hits"] += t.L1Hits
			c["sim.l2_hits"] += t.L2Hits
			c["sim.l3_hits"] += t.L3Hits
			c["sim.mem_accesses"] += t.MemAccesses
			c["sim.invalidations"] += t.Invalidations
		}
	}
	for k, v := range c {
		b.set(k, float64(v))
	}
}

// engineLayers records the engine, bench and runner layers of an
// in-process grid from its per-point timings.
func (b *benchRun) engineLayers(g *gridRun, gc0, gc1 gcReading) {
	var run, build, validate time.Duration
	var attempts uint64
	var busy []span
	for _, t := range g.timings {
		run += t.run
		build += t.build
		validate += t.validate
		busy = append(busy, t.at)
	}
	for _, st := range g.stats {
		attempts += st.CommittedTasks + st.AbortedAttempts
	}
	b.set("engine.run_s", run.Seconds())
	if attempts > 0 {
		b.set("engine.ns_per_attempt", float64(run.Nanoseconds())/float64(attempts))
		b.set("engine.alloc_bytes_per_attempt", float64(gc1.allocBytes-gc0.allocBytes)/float64(attempts))
	}
	b.set("go.gc_cpu_frac", gc1.gcFrac(gc0))
	n := float64(len(g.timings))
	b.set("bench.build_ms", ms(build)/n)
	b.set("bench.validate_ms", ms(validate)/n)
	var total time.Duration
	for _, iv := range busy {
		total += iv.end - iv.start
	}
	b.set("runner.busy_frac", total.Seconds()/(float64(g.parallel)*g.wall.Seconds()))
	b.set("runner.tail_s", underfilled(busy, g.parallel, 0, g.wall).Seconds())
}
