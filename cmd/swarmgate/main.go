// Command swarmgate fronts a fleet of swarmd replicas with an adaptive
// routing gateway (internal/gate). It exposes the same /v1 surface as a
// single swarmd — same swarm/api request/response contract, same error
// envelope, byte-identical responses — but splits each sweep grid into
// shares, one cross-product sub-grid per replica chosen by a pluggable
// balancer, and streams every share from its replica as one /v1/sweep.
// Points a share fails to deliver fall back to one /v1/run each, with
// per-point timeouts and bounded retry-on-retryable against a different
// replica; a straggling share's missing points are hedged per point. A
// replica killed mid-sweep is drained and the points its share still owed
// are re-routed, so the sweep still completes.
//
// Endpoints (identical contract to swarmd):
//
//	POST /v1/run              one configuration, routed to one replica
//	POST /v1/sweep            a grid, split into per-replica shares and reassembled in config order
//	GET  /v1/experiments      proxied replica experiment listing
//	POST /v1/experiments/{id} proxied to one replica (retried on retryable failure)
//	GET  /healthz             gateway liveness + per-replica health map
//	GET  /metrics             Prometheus text: swarmgate_* routing counters
//
// Usage:
//
//	swarmgate -replicas http://10.0.0.1:8080,http://10.0.0.2:8080
//	swarmgate -replicas ... -balancer p2c          # power-of-two-choices
//	swarmgate -replicas ... -balancer roundrobin   # no-signal baseline
//	swarmgate -replicas ... -point-timeout 2m -retries 5
//	swarmgate -replicas ... -breaker-threshold 3 -hedge=false   # failure-hardening knobs
//
// The default balancer is "adaptive": pheromone-style scores, reinforced
// by success latency and decayed multiplicatively on error/timeout, with
// roulette-wheel routing proportional to score. Replicas should share a
// -store directory so any replica can serve any previously computed point.
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener closes,
// in-flight requests drain for -drain, then remaining routing is canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swarmhints/internal/cliutil"
	"swarmhints/internal/gate"
	"swarmhints/internal/obs"
)

// fatal logs a startup/serve failure and exits.
func fatal(msg string, err error) {
	slog.Error(msg, "component", "swarmgate", "err", err)
	os.Exit(1)
}

func main() {
	var (
		addr        = flag.String("addr", ":8090", "listen address (host:port; port 0 = ephemeral)")
		replicas    = flag.String("replicas", "", "comma-separated swarmd base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
		balancer    = flag.String("balancer", gate.BalancerAdaptive, "routing policy: adaptive, p2c, or roundrobin")
		pointTO     = flag.Duration("point-timeout", 5*time.Minute, "per-attempt timeout for one point, and the longest a share may wait for its next record (0 = none)")
		retries     = flag.Int("retries", 3, "extra attempts for a retryable point failure, each on a different replica")
		concurrency = flag.Int("concurrency", 0, "max per-point requests (share fallbacks, hedges, seed runs) in flight per request (0 = 4 x replicas)")
		probe       = flag.Duration("probe", time.Second, "background /healthz probe interval (negative = disabled; the interval is jittered +/-25%)")
		probeTO     = flag.Duration("probe-timeout", 0, "per-probe timeout (0 = 2s)")
		seed        = flag.Int64("seed", 1, "balancer PRNG seed (routing is reproducible for a fixed seed)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
		hedge       = flag.Bool("hedge", true, "hedge straggling points and shares with per-point attempts on another replica after the fleet's ~p95 time to the next point")
		brkThresh   = flag.Int("breaker-threshold", 0, "consecutive failures that open a replica's circuit breaker (0 = 5, negative = disabled)")
		brkCooldown = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 2s)")
		retryWait   = flag.Duration("retry-backoff", 0, "base retry backoff, grown exponentially with full jitter (0 = 5ms, negative = disabled)")
		faultSpec   = flag.String("fault", "", "fault-injection site spec, e.g. 'gate.attempt=fail,prob:0.01' (testing only)")
		faultSeed   = flag.Int64("fault-seed", 1, "fault-injection PRNG seed (fire patterns are reproducible for a fixed seed)")
		faultAdmin  = flag.Bool("fault-admin", false, "mount the /v1/faults runtime fault-injection admin endpoint (testing only)")
		obsOn       = flag.Bool("obs", true, "enable request tracing and latency histograms (disabled, every instrumentation point costs one atomic load)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		debugAddr   = flag.String("debug-addr", "", "separate listener for /debug/pprof and /debug/traces (empty = disabled); never expose publicly")
	)
	flag.Parse()

	if err := obs.SetupDefaultLogger(*logLevel, *logFormat); err != nil {
		fatal("bad logging flags", err)
	}
	obs.SetEnabled(*obsOn)
	if err := cliutil.ArmFaults(*faultSpec, *faultSeed); err != nil {
		fatal("arming fault sites", err)
	}
	urls, err := cliutil.ParseReplicas(*replicas)
	if err != nil {
		fatal("parsing replicas", err)
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal("debug listener", err)
		}
		slog.Info("debug listener up (pprof + traces)", "component", "swarmgate", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, obs.DebugHandler(obs.Default)); err != nil {
				slog.Error("debug listener failed", "component", "swarmgate", "err", err)
			}
		}()
	}
	g, err := gate.New(gate.Options{
		Replicas:         urls,
		Balancer:         *balancer,
		PointTimeout:     *pointTO,
		Retries:          *retries,
		Concurrency:      *concurrency,
		ProbeInterval:    *probe,
		ProbeTimeout:     *probeTO,
		Seed:             *seed,
		Hedge:            *hedge,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		RetryBackoff:     *retryWait,
		FaultAdmin:       *faultAdmin,
	})
	if err != nil {
		fatal("building gateway", err)
	}
	srv := &http.Server{
		Handler: g.Handler(),
		// Requests inherit the gateway lifetime: Close cancels them all.
		BaseContext: func(net.Listener) context.Context { return g.Context() },
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	slog.Info("listening", "component", "swarmgate", "addr", ln.Addr().String(),
		"replicas", len(urls), "balancer", *balancer, "obs", *obsOn)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal("serve", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, and cut
	// off stragglers by canceling the gateway context at the drain deadline.
	slog.Info("shutting down", "component", "swarmgate", "drain", *drain)
	killTimer := time.AfterFunc(*drain, g.Close)
	defer killTimer.Stop()
	sdCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		slog.Error("shutdown", "component", "swarmgate", "err", err)
	}
	g.Close()
	fmt.Fprintln(os.Stderr, "swarmgate: bye")
}
