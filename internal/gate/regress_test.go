package gate

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"swarmhints/internal/service"
	"swarmhints/swarm/api"
)

// emptyRecordReplica answers every /v1/run with a 200 whose result set
// carries zero records — the malformed-but-reachable replica of the
// rs.Records[0] regression. Its /healthz is green, so only in-band
// outcomes can (wrongly) change its standing.
func emptyRecordReplica(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"schema":"swarmhints.metrics.v1","records":[]}`))
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayEmptyReplicaResponse: a replica that answers 200 with a
// zero-record result set must not crash the point goroutine or poison the
// fleet — the point retries against a different replica and completes, and
// because the misbehaving replica is reachable (the failure is
// instance-bound internal, not unavailable), its health flag stays up so a
// fixed deploy re-enters rotation without waiting for a probe.
func TestGatewayEmptyReplicaResponse(t *testing.T) {
	single := startReplica(t, "")
	body := `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`
	resp, want := post(t, single.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single run status %d: %s", resp.StatusCode, want)
	}

	good := startReplica(t, "")
	bad := emptyRecordReplica(t)
	// Round-robin from the bad replica first: the very first attempt hits
	// the zero-record answer and must re-route.
	g, ts := startGateway(t, BalancerRoundRobin, bad.URL, good.URL)

	resp, got := post(t, ts.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with a zero-record replica in the fleet: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("re-routed run bytes differ from single swarmd")
	}
	if rep := resp.Header.Get("X-Swarmgate-Replica"); rep != good.URL {
		t.Errorf("point served by %q, want the well-behaved replica", rep)
	}

	c := g.Counters()
	if c.Failed[bad.URL] == 0 {
		t.Error("zero-record answer not counted as a failed attempt")
	}
	if !c.Healthy[bad.URL] {
		t.Error("reachable replica demoted for an instance-bound internal error")
	}
	// A full sweep still reassembles, whatever share round-robin hands the
	// misbehaving replica.
	if gotSweep, wantSweep := postSweep(t, ts.URL, "json"), fig2Golden(t); !bytes.Equal(gotSweep, wantSweep) {
		t.Error("sweep through a zero-record replica differs from the golden export")
	}
}

// TestGatewayCanceledRequestKeepsScores: a client disconnect mid-attempt
// is not evidence about the replica. The attempt must not count as a
// replica failure, must not decay the balancer score, and must not demote
// health — before the fix a canceled long point decayed the adaptive score
// and bumped failed_total exactly as a real replica error would.
func TestGatewayCanceledRequestKeepsScores(t *testing.T) {
	// The replica parks every /v1/run until the caller gives up, then cuts
	// the connection — a healthy-but-slow instance seen by a client that
	// hung up. Once "recovered", it serves normally (in-process service).
	svc := service.New(service.Options{Workers: 4, Validate: true})
	t.Cleanup(svc.Close)
	backing := svc.Handler()
	var recovered atomic.Bool
	done := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" && !recovered.Load() {
			select {
			case <-r.Context().Done():
			case <-done:
			}
			panic(http.ErrAbortHandler)
		}
		backing.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	t.Cleanup(func() { close(done) }) // unpark before slow.Close waits on handlers

	g, ts := startGateway(t, BalancerAdaptive, slow.URL)
	before := g.Counters()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	rr := api.RunRequest{Bench: "des", Sched: "random", Cores: 1, Scale: "tiny"}
	_, _, aerr := g.runPoint(ctx, rr)
	if aerr == nil {
		t.Fatal("canceled point reported success")
	}
	if aerr.Code != api.CodeShuttingDown {
		t.Fatalf("canceled point reported %q, want %q", aerr.Code, api.CodeShuttingDown)
	}

	after := g.Counters()
	if after.Failed[slow.URL] != before.Failed[slow.URL] {
		t.Errorf("failed count moved %d -> %d on a client cancellation",
			before.Failed[slow.URL], after.Failed[slow.URL])
	}
	if after.Scores[slow.URL] != before.Scores[slow.URL] {
		t.Errorf("balancer score moved %v -> %v on a client cancellation",
			before.Scores[slow.URL], after.Scores[slow.URL])
	}
	if !after.Healthy[slow.URL] {
		t.Error("replica demoted by a client cancellation")
	}
	if failed := promCounter(t, ts.URL, `swarmgate_replica_failed_total\{replica="`+regexp.QuoteMeta(slow.URL)+`"\}`); failed != 0 {
		t.Errorf("swarmgate_replica_failed_total = %v after a client cancellation, want 0", failed)
	}

	// The slot the canceled attempt held is released: a fresh, uncanceled
	// point through the same balancer still routes and completes. (Under
	// p2c a leaked outstanding slot would skew every later pick.)
	recovered.Store(true)
	rec, _, aerr2 := g.runPoint(context.Background(), rr)
	if aerr2 != nil {
		t.Fatalf("follow-up point after cancellation: %v", aerr2)
	}
	if len(rec.Labels) == 0 {
		t.Error("follow-up point returned an empty record")
	}
}

// TestGatewayShareWrongRecords: a replica that answers its share with a
// well-framed stream of the wrong points (here: another benchmark's) must
// not leak a single foreign record into the response. The share fails as
// an instance-bound internal error, its points are retried on the other
// replica, and — the replica being reachable — its health stays up.
func TestGatewayShareWrongRecords(t *testing.T) {
	good := startReplica(t, "")
	backend := startReplica(t, "")
	wrong := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := io.Reader(r.Body)
		if r.URL.Path == "/v1/sweep" {
			b, _ := io.ReadAll(r.Body)
			body = bytes.NewReader(bytes.ReplaceAll(b, []byte(`"des"`), []byte(`"sssp"`)))
		}
		resp, err := http.Post(backend.URL+r.URL.Path, "application/json", body)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(wrong.Close)

	g, ts := startGateway(t, BalancerRoundRobin, wrong.URL, good.URL)
	if got := postSweep(t, ts.URL, "json"); !bytes.Equal(got, fig2Golden(t)) {
		t.Error("sweep through a replica streaming the wrong points differs from the golden export")
	}
	c := g.Counters()
	if c.Failed[wrong.URL] == 0 {
		t.Error("wrong-point share not counted as a failed attempt")
	}
	if c.Retried[good.URL] == 0 {
		t.Error("wrong-point share's points were not retried on the other replica")
	}
	if !c.Healthy[wrong.URL] {
		t.Error("reachable replica demoted for streaming the wrong points")
	}
}
