// Load-shedding and request-fault tests: the MaxPending admission bound,
// the injected overload site, and the shape of the 429 the shed produces,
// plus the run-fault sites every work request passes. The shed must never
// touch healthz or metrics — an overloaded replica still has to answer the
// prober and export its counters.
package service

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"swarmhints/internal/fault"
	"swarmhints/swarm/api"
)

const tinyRunBody = `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`

// TestMaxPendingShedsExcessRequests: with the bound at 1 and one request
// parked inside the handler (via an injected slow site), a second request
// is rejected at admission with a retryable 429 — and once the first
// drains, admission reopens.
func TestMaxPendingShedsExcessRequests(t *testing.T) {
	defer fault.Default.Reset()
	svc, ts := startServer(t, Options{Workers: 2, Validate: true, MaxPending: 1})

	// The first request holds its admission slot for 300ms.
	fault.Default.Arm("swarmd.run.slow", fault.Plan{Every: 1, Times: 1, Latency: 300 * time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, b := postRun(t, ts.URL, tinyRunBody); resp.StatusCode != http.StatusOK {
			t.Errorf("slow-but-admitted request: %d %s", resp.StatusCode, b)
		}
	}()

	// Wait until it is visibly parked inside the handler, then overflow.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Counters().Pending == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never showed up in the pending gauge")
		}
		time.Sleep(time.Millisecond)
	}
	resp, b := postRun(t, ts.URL, tinyRunBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound request: %d %s, want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	aerr := api.DecodeError(resp.StatusCode, bytes.TrimSpace(b))
	if aerr.Code != api.CodeOverloaded || !aerr.Retryable {
		t.Fatalf("shed envelope = %+v, want retryable %q", aerr, api.CodeOverloaded)
	}

	// The shed never blocks the cheap endpoints the fleet depends on.
	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s during overload: %d, want 200", path, r.StatusCode)
		}
	}

	wg.Wait()
	if c := svc.Counters(); c.Shed != 1 {
		t.Errorf("Shed = %d, want 1", c.Shed)
	}
	// The slot drained: the next request is admitted.
	if resp, b := postRun(t, ts.URL, tinyRunBody); resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain request: %d %s", resp.StatusCode, b)
	}
}

// TestInjectedOverloadSheds: the swarmd.overload site forces sheds
// regardless of the real admission pressure — the chaos lever for
// overload-burst scenarios — and each one counts.
func TestInjectedOverloadSheds(t *testing.T) {
	defer fault.Default.Reset()
	svc, ts := startServer(t, Options{Workers: 2, Validate: true})

	fault.Default.Arm("swarmd.overload", fault.Plan{Every: 1, Times: 2, Fail: true})
	for i := 0; i < 2; i++ {
		resp, b := postRun(t, ts.URL, tinyRunBody)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("injected overload %d: %d %s, want 429", i, resp.StatusCode, b)
		}
	}
	// Times cap exhausted: service recovers without intervention.
	if resp, b := postRun(t, ts.URL, tinyRunBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst request: %d %s", resp.StatusCode, b)
	}
	if c := svc.Counters(); c.Shed != 2 {
		t.Errorf("Shed = %d, want 2", c.Shed)
	}
}

// TestRunFaultsFireOnSweep: swarmd.run.err and swarmd.run.slow fire at the
// start of a /v1/sweep exactly as they do for /v1/run — the error as a
// retryable envelope before any stream byte, the delay before the header —
// so a replica made slow or failing is so for every request.
func TestRunFaultsFireOnSweep(t *testing.T) {
	defer fault.Default.Reset()
	_, ts := startServer(t, Options{Workers: 2, Validate: true})
	sweep := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"benches":["des"],"scheds":["random"],"cores":[1],"scale":"tiny"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	fault.Default.Arm("swarmd.run.err", fault.Plan{Every: 1, Times: 1, Fail: true})
	resp, b := sweep()
	aerr := api.DecodeError(resp.StatusCode, bytes.TrimSpace(b))
	if resp.StatusCode != http.StatusInternalServerError || aerr.Code != api.CodeInternal || !aerr.Retryable {
		t.Fatalf("sweep under swarmd.run.err: %d %+v, want a retryable %q envelope", resp.StatusCode, aerr, api.CodeInternal)
	}

	const delay = 200 * time.Millisecond
	fault.Default.Arm("swarmd.run.slow", fault.Plan{Every: 1, Times: 1, Latency: delay})
	start := time.Now()
	if resp, b := sweep(); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep under swarmd.run.slow: %d %s", resp.StatusCode, b)
	}
	if d := time.Since(start); d < delay {
		t.Errorf("sweep under swarmd.run.slow took %v, want >= %v", d, delay)
	}
}
