// Command perfbench is swarmhints' end-to-end benchmark. One invocation
// runs one workload, checks every output it gets, and prints each metric by
// name with its unit; the last line of standard output is the result as one
// JSON object. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload regen --seed 1 --seconds 38 --trace 0
//
// Workloads: regen (the paper's Sec. VI-B grid at small scale, in-process),
// serve-warm (a swarmgate→swarmd fleet answering from its LRU and store)
// and serve-cold (the same fleet answering configurations it has never
// seen). --trace 0 reports the end-to-end metrics; --trace 1 turns the
// fleet's tracing on and reports the per-layer metrics instead. README.md
// defines every workload and metric.
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"swarmhints/internal/obs"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the numbers a user waits on; every workload reports each.
// The tail latencies are per-layer diagnostics (load.run_p99_ms,
// load.sweep_p90_ms), not end-to-end metrics: on a shared VM, the tail of
// a few-millisecond request is set by how long the hypervisor deschedules
// a vCPU, and it moved 2.5x between runs of the same code.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"ok_frac", "frac"},
	{"regen_s", "s"},
	{"speedup_ratio", "x"},
	{"wasted_work_reduction", "x"},
	{"traffic_reduction", "x"},
	{"run_p50_ms", "ms"},
	{"max_rps", "1/s"},
	{"sweep_p50_ms", "ms"},
}

// perLayer break the end-to-end numbers down by layer; a layer a workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	{"engine.run_s", "s"},
	{"engine.ns_per_attempt", "ns"},
	{"engine.alloc_bytes_per_attempt", "B"},
	{"go.gc_cpu_frac", "frac"},
	{"sim.cycles", "count"},
	{"sim.committed_tasks", "count"},
	{"sim.aborted_tasks", "count"},
	{"sim.squashed_tasks", "count"},
	{"sim.spilled_tasks", "count"},
	{"sim.stolen_tasks", "count"},
	{"sim.gvt_rounds", "count"},
	{"sim.conflict_comparisons", "count"},
	{"sim.flits_mem", "count"},
	{"sim.flits_abort", "count"},
	{"sim.flits_task", "count"},
	{"sim.flits_gvt", "count"},
	{"sim.l1_hits", "count"},
	{"sim.l2_hits", "count"},
	{"sim.l3_hits", "count"},
	{"sim.mem_accesses", "count"},
	{"sim.invalidations", "count"},
	{"sim.commit_cycles", "count"},
	{"sim.abort_cycles", "count"},
	{"sim.stall_cycles", "count"},
	{"sim.empty_cycles", "count"},
	{"sim.spill_cycles", "count"},
	{"bench.build_ms", "ms"},
	{"bench.validate_ms", "ms"},
	{"runner.busy_frac", "frac"},
	{"runner.tail_s", "s"},
	{"metrics.export_ms", "ms"},
	{"gate.attempts_per_request", "count"},
	{"gate.upstream_requests_per_sweep", "count"},
	{"gate.retries", "count"},
	{"gate.attempt_ms", "ms"},
	{"gate.self_ms", "ms"},
	{"swarmd.lru_hit_frac", "frac"},
	{"swarmd.store_hit_frac", "frac"},
	{"swarmd.coalesced_hit_frac", "frac"},
	{"swarmd.engine_runs", "count"},
	{"swarmd.shed", "count"},
	{"swarmd.parse_ms", "ms"},
	{"swarmd.cache_ms", "ms"},
	{"swarmd.store_ms", "ms"},
	{"swarmd.coalesce_ms", "ms"},
	{"swarmd.execute_ms", "ms"},
	{"swarmd.self_ms", "ms"},
	{"store.read_ms", "ms"},
	{"store.write_ms", "ms"},
	{"store.fsync_ms", "ms"},
	{"store.reads", "count"},
	{"store.writes", "count"},
	{"store.bytes_per_record", "B"},
	{"client.decode_ms", "ms"},
	{"obs.overhead_frac", "frac"},
	{"load.late_ms_p99", "ms"},
	{"load.run_p99_ms", "ms"},
	{"load.sweep_p90_ms", "ms"},
	{"host.steal_frac", "frac"},
}

// benchRun is one invocation's state: its settings and what it measured.
type benchRun struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	dir      string // scratch directory for result stores
	conns    int    // generator connections (and goroutines): nproc

	heap *heapSampler

	mu      sync.Mutex
	m       map[string]float64
	errs    []string
	lateP99 float64

	attempted atomic.Int64
	failed    atomic.Int64
}

func (b *benchRun) set(name string, v float64) {
	b.mu.Lock()
	b.m[name] = v
	b.mu.Unlock()
}

// zero records metrics of layers the workload does not exercise.
func (b *benchRun) zero(names ...string) {
	for _, n := range names {
		b.set(n, 0)
	}
}

// fail records a failed operation or wrong output and returns it as an
// error. Any failure makes the run incorrect.
func (b *benchRun) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.errs) < 20 {
		b.errs = append(b.errs, err.Error())
	}
	b.mu.Unlock()
	return err
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: regen, serve-warm or serve-cold")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 38, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 traces the fleet and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch result stores")
	flag.Parse()

	b := &benchRun{workload: *workload, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, conns: runtime.NumCPU(), m: make(map[string]float64)}
	var work func(context.Context) error
	switch *workload {
	case "regen":
		work = b.regen
	case "serve-warm":
		work = func(ctx context.Context) error { return b.serve(ctx, true) }
	case "serve-cold":
		work = func(ctx context.Context) error { return b.serve(ctx, false) }
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have regen, serve-warm, serve-cold)\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var err error
	if b.dir, err = os.MkdirTemp(*dir, "work-"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The daemons ship with tracing on; the untraced run measures with it
	// off, and the traced run compares the two (obs.overhead_frac).
	obs.SetEnabled(b.traced)
	total0, steal0, stealOK := cpuTimes()
	b.heap = startHeapSampler()
	err = work(ctx)
	b.heap.finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		for _, e := range b.errs {
			fmt.Fprintln(os.Stderr, "  ", e)
		}
		return 1
	}
	steal := 0.0
	if total1, steal1, ok := cpuTimes(); ok && stealOK && total1 > total0 {
		steal = float64(steal1-steal0) / float64(total1-total0)
	}
	b.set("host.steal_frac", steal)
	b.set("load.late_ms_p99", b.lateP99)
	attempted, failed := b.attempted.Load(), b.failed.Load()
	if attempted > 0 {
		b.set("ok_frac", 1-float64(failed)/float64(attempted))
	}
	return b.report(attempted, failed)
}

// report prints the metric table and noise diagnostics, then the JSON
// result line, and returns the exit code: 1 when any check failed.
func (b *benchRun) report(attempted, failed int64) int {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	var missing []string
	fmt.Printf("# %s seed=%d seconds=%.0f trace=%v\n", b.workload, b.seed, b.budget.Seconds(), b.traced)
	for _, d := range defs {
		v, ok := b.m[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricJSON{v, d.unit}
		fmt.Printf("%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("# %s\n", hostLine(b.m["host.steal_frac"], b.lateP99))
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", b.workload, strings.Join(missing, ", "))
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// subdir returns a fresh directory under the run's scratch directory.
func (b *benchRun) subdir(name string) string {
	return filepath.Join(b.dir, name)
}
