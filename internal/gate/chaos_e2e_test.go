// Chaos end-to-end suite: deterministic fault injection against a live
// fleet, asserting the one invariant everything else exists to protect —
// the gateway delivers a complete, trailer-terminated stream whose bytes
// are identical to a single healthy swarmd's, no matter which replica is
// flaky, slow, truncating, or shedding underneath it.
//
// All scenarios arm sites in fault.Default (the registry every in-process
// service and store resolves against) and defer a Reset so no injection
// leaks across tests. Replica-targeted faults use scoped site names via
// service.Options.FaultScope; disk faults use the bare store.* sites and
// only store-less oracles.
package gate

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swarmhints/internal/fault"
	"swarmhints/internal/service"
	"swarmhints/internal/store"
	"swarmhints/swarm/api"
)

// startChaosReplica boots an in-process swarmd with full control over its
// options — fault scope, admission bound, store handle. Workers and
// Validate default to the plain startReplica configuration.
func startChaosReplica(t *testing.T, opt service.Options) *httptest.Server {
	t.Helper()
	if opt.Workers == 0 {
		opt.Workers = 4
	}
	opt.Validate = true
	svc := service.New(opt)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts
}

// startChaosGateway is startGateway with full control over gate.Options.
func startChaosGateway(t *testing.T, opt Options) (*Gateway, *httptest.Server) {
	t.Helper()
	if opt.Retries == 0 {
		opt.Retries = 3
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = -1
	}
	g, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() { ts.Close(); g.Close() })
	return g, ts
}

func chaosStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.OpenWith(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// decodeStream fully decodes an NDJSON sweep stream, failing the test on
// any decode error or a missing/incomplete trailer.
func decodeStream(t *testing.T, b []byte) int {
	t.Helper()
	dec, err := api.NewStreamDecoder(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := dec.Next()
		if err != nil {
			t.Fatalf("stream record %d: %v", n, err)
		}
		if !ok {
			break
		}
		n++
	}
	if dec.Trailer() == nil || !dec.Trailer().Complete {
		t.Fatalf("stream trailer %+v, want complete", dec.Trailer())
	}
	return n
}

// TestChaosFlakyDisk: every replica's disk misbehaves — injected write
// failures and a torn (half-persisted) record. Requests must never see the
// disk trouble: write-through is best-effort, a torn record read back by a
// fresh fleet is quarantined and recomputed, and both sweeps are
// byte-identical to a store-less swarmd.
func TestChaosFlakyDisk(t *testing.T) {
	defer fault.Default.Reset()
	single := startReplica(t, "") // no store: immune to the bare store.* sites
	want := postSweep(t, single.URL, "ndjson")

	// Every third write fails outright; the fourth write that survives to
	// the commit stage is torn mid-payload. Deterministic via Every, so
	// exactly 2 of the 8 phase-one writes fail and exactly 1 record is torn.
	fault.Default.Arm("store.write", fault.Plan{Every: 3, Fail: true})
	fault.Default.Arm("store.torn", fault.Plan{Every: 4})

	dir := t.TempDir()
	fleet1 := make([]*store.Store, 3)
	var urls1 []string
	for i := range fleet1 {
		fleet1[i] = chaosStore(t, dir)
		urls1 = append(urls1, startChaosReplica(t, service.Options{Store: fleet1[i]}).URL)
	}
	_, ts := startChaosGateway(t, Options{Replicas: urls1, Balancer: BalancerRoundRobin})
	got := postSweep(t, ts.URL, "ndjson")
	if !bytes.Equal(got, want) {
		t.Error("sweep over flaky disks differs from a single swarmd's bytes")
	}
	decodeStream(t, got)

	var writeErrs uint64
	for _, st := range fleet1 {
		writeErrs += st.Counters().WriteErrors
	}
	if writeErrs == 0 {
		t.Error("no injected write failures landed — the fault sites were bypassed")
	}

	// A fresh fleet on the same directory has cold caches: every point is
	// read back from disk, and the torn record must be quarantined — a
	// miss plus recompute, never a corrupt result or a poisoned retry loop.
	fleet2 := make([]*store.Store, 3)
	var urls2 []string
	for i := range fleet2 {
		fleet2[i] = chaosStore(t, dir)
		urls2 = append(urls2, startChaosReplica(t, service.Options{Store: fleet2[i]}).URL)
	}
	_, ts2 := startChaosGateway(t, Options{Replicas: urls2, Balancer: BalancerRoundRobin})
	got2 := postSweep(t, ts2.URL, "ndjson")
	if !bytes.Equal(got2, want) {
		t.Error("warm-restart sweep over a torn store differs from a single swarmd's bytes")
	}

	var quarantined uint64
	for _, st := range fleet2 {
		quarantined += st.Counters().Quarantined
	}
	if quarantined == 0 {
		t.Error("torn record was never quarantined on read-back")
	}
}

// TestChaosStalledReplica: one replica answers every point 500ms late.
// With hedging on, the gateway launches a second attempt against a
// sibling once the straggler overshoots the fleet's latency profile, the
// hedge wins, and the loser is canceled without poisoning the
// straggler's health — slow is not down.
func TestChaosStalledReplica(t *testing.T) {
	defer fault.Default.Reset()
	single := startReplica(t, "")
	want := postSweep(t, single.URL, "ndjson")

	r1 := startChaosReplica(t, service.Options{})
	r2 := startChaosReplica(t, service.Options{})
	straggler := startChaosReplica(t, service.Options{FaultScope: "straggler"})
	g, ts := startChaosGateway(t, Options{
		Replicas: []string{r1.URL, r2.URL, straggler.URL},
		Balancer: BalancerRoundRobin,
		Hedge:    true,
		Seed:     1,
	})

	// Warm-up sweep: 8 healthy points seed the latency EWMA past the
	// sample floor so hedging is armed for the chaos round.
	if got := postSweep(t, ts.URL, "ndjson"); !bytes.Equal(got, want) {
		t.Fatal("warm-up sweep differs from a single swarmd's bytes")
	}
	warm := g.Counters()

	// The stall must overshoot the fleet's EWMA-p95 hedge delay on any
	// machine speed (race-instrumented runs inflate the warm-up profile by
	// an order of magnitude), so it is far larger than any real point: the
	// hedge always fires first and the sleep is cut short by the loser's
	// cancellation, never awaited.
	fault.Default.Arm("straggler.swarmd.run.slow",
		fault.Plan{Every: 1, Latency: 30 * time.Second})
	got := postSweep(t, ts.URL, "ndjson")
	if !bytes.Equal(got, want) {
		t.Error("sweep with a stalled replica differs from a single swarmd's bytes")
	}
	decodeStream(t, got)

	c := g.Counters()
	if c.Hedged <= warm.Hedged {
		t.Errorf("no hedges launched against the straggler (warm %d, now %d)", warm.Hedged, c.Hedged)
	}
	if c.HedgeWins <= warm.HedgeWins {
		t.Errorf("no hedge beat the straggler (warm %d, now %d)", warm.HedgeWins, c.HedgeWins)
	}
	// The straggler was slow, never wrong: canceled losers must not score
	// as failures or demote its health.
	if !c.Healthy[straggler.URL] {
		t.Error("stalled replica demoted to unhealthy by canceled hedge losers")
	}
	if c.Failed[straggler.URL] != 0 {
		t.Errorf("stalled replica charged %d failures for canceled attempts", c.Failed[straggler.URL])
	}
}

// TestChaosMidStreamKill: a replica dies mid-NDJSON-stream, after the
// header and three records. A direct client sees a typed truncation — the
// framing contract's whole point — while the same grid through the
// gateway is unaffected: the gateway reads the victim's share stream,
// sees it end without its trailer, and recovers the points it still owed
// on the surviving replica through the per-point path, re-framing the
// stream itself, so one replica's dead sweep stream cannot truncate a
// gateway response.
func TestChaosMidStreamKill(t *testing.T) {
	defer fault.Default.Reset()
	single := startReplica(t, "")
	want := postSweep(t, single.URL, "ndjson")

	victim := startChaosReplica(t, service.Options{FaultScope: "victim"})
	fault.Default.Arm("victim.swarmd.stream.stall",
		fault.Plan{Every: 1, After: 3, Times: 1, Fail: true})

	// Direct sweep: the stream dies without a trailer and the decoder says
	// so with ErrTruncated — no panic, no silently short result.
	resp, body := post(t, victim.URL, "/v1/sweep", strings.Replace(fig2SweepBody, "%s", "ndjson", 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("victim sweep status %d (truncation happens after the 200)", resp.StatusCode)
	}
	dec, err := api.NewStreamDecoder(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for {
		_, ok, err := dec.Next()
		if err != nil {
			if !errors.Is(err, api.ErrTruncated) {
				t.Fatalf("truncated stream surfaced %v, want ErrTruncated", err)
			}
			break
		}
		if !ok {
			t.Fatal("truncated stream decoded as complete")
		}
		records++
	}
	if records != 3 {
		t.Errorf("victim streamed %d records before the kill, want 3", records)
	}

	// Same grid through a gateway fronting the victim: byte-identical and
	// complete. (The stall site stays armed with Times:1 exhausted; re-arm
	// it unbounded so the victim truncates every share it is sent.)
	fault.Default.Arm("victim.swarmd.stream.stall", fault.Plan{Every: 1, Fail: true})
	r2 := startChaosReplica(t, service.Options{})
	g, ts := startChaosGateway(t, Options{
		Replicas: []string{victim.URL, r2.URL},
		Balancer: BalancerRoundRobin,
	})
	got := postSweep(t, ts.URL, "ndjson")
	if !bytes.Equal(got, want) {
		t.Error("gateway sweep with a stream-killing replica differs from a single swarmd's bytes")
	}
	decodeStream(t, got)
	if c := g.Counters(); c.Retried[r2.URL] == 0 {
		t.Errorf("victim's truncated share was not recovered on the surviving replica: retried %+v", c.Retried)
	}
}

// TestChaosOverloadBurst: one replica sheds every request with 429
// "overloaded". The code is retryable, so the balancer routes around it;
// after three consecutive rejections the circuit breaker opens and stops
// even trying. Shedding is load, not sickness: the replica stays healthy
// and is never demoted.
func TestChaosOverloadBurst(t *testing.T) {
	defer fault.Default.Reset()
	single := startReplica(t, "")
	want := postSweep(t, single.URL, "ndjson")

	r1 := startChaosReplica(t, service.Options{})
	busy := startChaosReplica(t, service.Options{FaultScope: "busy"})
	fault.Default.Arm("busy.swarmd.overload", fault.Plan{Every: 1, Fail: true})

	// Directly, the shed is a well-formed 429: overloaded code, retryable,
	// Retry-After header.
	resp, body := post(t, busy.URL, "/v1/run", `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	aerr := api.DecodeError(resp.StatusCode, bytes.TrimSpace(body))
	if aerr.Code != api.CodeOverloaded || !aerr.Retryable {
		t.Fatalf("shed envelope = %+v, want retryable %q", aerr, api.CodeOverloaded)
	}

	g, ts := startChaosGateway(t, Options{
		Replicas:         []string{r1.URL, busy.URL},
		Balancer:         BalancerRoundRobin,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		Seed:             1,
	})
	got := postSweep(t, ts.URL, "ndjson")
	if !bytes.Equal(got, want) {
		t.Error("sweep with an overloaded replica differs from a single swarmd's bytes")
	}
	decodeStream(t, got)

	c := g.Counters()
	if c.Failed[busy.URL] == 0 {
		t.Error("overloaded replica's rejections not recorded as failed attempts")
	}
	if c.BreakerOpens[busy.URL] == 0 {
		t.Errorf("breaker never opened on the shedding replica: %+v", c.BreakerOpens)
	}
	if c.BreakerState[busy.URL] != "open" {
		t.Errorf("breaker state %q inside the cooldown, want open", c.BreakerState[busy.URL])
	}
	// Overload is explicitly not a health signal: the replica answers
	// probes and will be back the moment the burst passes.
	if !c.Healthy[busy.URL] {
		t.Error("shedding replica demoted to unhealthy")
	}
	if shed := promCounter(t, busy.URL, `swarmd_shed_total`); shed == 0 {
		t.Error("swarmd_shed_total not incremented on the shedding replica")
	}
}
