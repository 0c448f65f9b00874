package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// gcReading is a point-in-time read of the Go runtime's allocation and CPU
// accounting.
type gcReading struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() gcReading {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	return gcReading{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// gcFrac is the share of the process's CPU time spent in the garbage
// collector since an earlier reading.
func (r gcReading) gcFrac(before gcReading) float64 {
	if d := r.totalCPU - before.totalCPU; d > 0 {
		return (r.gcCPU - before.gcCPU) / d
	}
	return 0
}

// heapSampler reads the live heap every 10 ms: the heap the last
// garbage-collection cycle found live.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapTick)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.samples = append(h.samples, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

const (
	heapTick   = 10 * time.Millisecond
	heapWindow = 100 // samples: one second
)

// reset starts a new phase. It collects first, so the live heap the
// sampler reads next belongs to the new phase, not to the last cycle of
// the old one.
func (h *heapSampler) reset() {
	runtime.GC()
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.mu.Unlock()
}

// peak returns, in MB, the phase's typical one-second peak: the median over
// consecutive one-second windows of the largest live heap each saw. When a
// few runs are live at once the live heap is a handful of megabytes, and
// its single largest reading depends on which big runs a GC cycle happened
// to catch together; that moved regen's peak by a quarter from run to run.
func (h *heapSampler) peak() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var peaks []float64
	for i := 0; i < len(h.samples); i += heapWindow {
		var m uint64
		for _, v := range h.samples[i:min(i+heapWindow, len(h.samples))] {
			m = max(m, v)
		}
		peaks = append(peaks, float64(m))
	}
	return median(peaks) / (1 << 20)
}

// finish stops the sampler and waits for it to exit.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: total and steal
// jiffies. Steal is time the hypervisor ran someone else while this
// machine's vCPUs wanted to run; ok is false off Linux.
func cpuTimes() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostLine is the noise diagnostics recorded with every result.
func hostLine(stealFrac, lateP99 float64) string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s cpu=%q steal_frac=%.4f late_ms_p99=%.3f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), stealFrac, lateP99)
}
