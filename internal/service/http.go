package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"

	"swarmhints/internal/bench"
	"swarmhints/internal/cliutil"
	"swarmhints/internal/exp"
	"swarmhints/internal/fault"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/internal/runner"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// The handlers speak the typed wire contract in swarm/api: request bodies
// decode into api structs, every error response is the structured envelope
// {"error":{"code","message","retryable"}} written by api.WriteError (no
// plain-text http.Error bodies on /v1 endpoints), and NDJSON streams carry
// the api framing — header, records, completion trailer.

// Handler returns the service's HTTP API. The work-bearing endpoints pass
// through the admission bound (admit); health, metrics, and the registry
// listing never shed — an overloaded replica must still answer its prober.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.admit(s.handleRun))
	mux.HandleFunc("POST /v1/sweep", s.admit(s.handleSweep))
	mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	mux.HandleFunc("POST /v1/experiments/{id}", s.admit(s.handleExperiment))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	obs.Default.Mount(mux)
	if s.opt.FaultAdmin {
		mux.Handle("/v1/faults", fault.AdminHandler(fault.Default))
	}
	return mux
}

// traced continues the trace the gateway sent in the X-Swarm-Trace header
// (minting a fresh one for direct callers) and echoes the trace on the
// response. Callers must End the returned span.
func traced(w http.ResponseWriter, r *http.Request, name string) (context.Context, *obs.Span) {
	ctx, sp := obs.ContinueSpan(r.Context(), r.Header.Get(api.TraceHeader), name)
	if sp != nil {
		w.Header().Set(api.TraceHeader, sp.Header())
	}
	return ctx, sp
}

// admit is the bounded-admission gate in front of every work-bearing
// endpoint. A request beyond Options.MaxPending in-progress peers — or one
// the swarmd.overload fault site rejects — is shed immediately with the
// retryable 429 overloaded envelope (Retry-After: 1), so a burst degrades
// into fast, routable rejections instead of an unbounded queue. The worker
// semaphore still bounds execution; this bounds waiting.
func (s *Service) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := s.pending.Add(1)
		defer s.pending.Add(-1)
		if f, ok := s.siteOverload.Fire(); ok {
			_ = f.Sleep(r.Context())
			s.shed.Add(1)
			api.WriteError(w, api.Errorf(api.CodeOverloaded, "server overloaded (injected)"))
			return
		}
		if max := s.opt.MaxPending; max > 0 && n > int64(max) {
			s.shed.Add(1)
			api.WriteError(w, api.Errorf(api.CodeOverloaded,
				"server at admission bound (%d requests in progress)", max))
			return
		}
		h(w, r)
	}
}

// checkCores rejects core counts the simulated machine cannot be built
// with: sim.Config.WithCores silently rounds up to the next 1-or-k²·c mesh,
// which would cache results under a mislabeled configuration key.
func checkCores(cores []int) *api.Error {
	for _, c := range cores {
		if c < 1 {
			return api.Errorf(api.CodeBadCores, "cores must be >= 1, got %d", c)
		}
		if got := swarm.ScaledConfig().WithCores(c).Cores(); got != c {
			return api.Errorf(api.CodeBadCores, "cores must be 1 or fill a square mesh (nearest is %d), got %d", got, c)
		}
	}
	return nil
}

// parseHarness resolves the shared (scale, seed) harness fields.
func parseHarness(scaleName string, seed *int64) (bench.Scale, int64, *api.Error) {
	if scaleName == "" {
		scaleName = "small"
	}
	scale, err := cliutil.ParseScale(scaleName)
	if err != nil {
		return 0, 0, api.Errorf(api.CodeUnknownScale, "%v", err)
	}
	s := int64(7)
	if seed != nil {
		s = *seed
	}
	return scale, s, nil
}

// ParseRun resolves one run request into a fully specified configuration.
// Exported because the gateway (internal/gate) validates with exactly this
// logic, so a request it accepts is one every replica accepts.
func ParseRun(req api.RunRequest) (Config, *api.Error) {
	scale, seed, aerr := parseHarness(req.Scale, req.Seed)
	if aerr != nil {
		return Config{}, aerr
	}
	if _, ok := bench.Registry[req.Bench]; !ok {
		return Config{}, api.Errorf(api.CodeUnknownBench, "unknown benchmark %q", req.Bench)
	}
	kind, err := cliutil.ParseSched(req.Sched)
	if err != nil {
		return Config{}, api.Errorf(api.CodeUnknownSched, "%v", err)
	}
	if aerr := checkCores([]int{req.Cores}); aerr != nil {
		return Config{}, aerr
	}
	if req.Seeds < 0 || req.Seeds > api.MaxSeeds {
		return Config{}, api.Errorf(api.CodeBadRequest, "seeds must be in [0, %d], got %d", api.MaxSeeds, req.Seeds)
	}
	return Config{Scale: scale, Seed: seed, Point: exp.Point{
		Name: req.Bench, Kind: kind, Cores: req.Cores, Profile: req.Profile,
	}}, nil
}

// ParseSweep resolves a sweep request into its deduplicated, canonically
// ordered configuration points plus the harness fields. Exported for the
// gateway, which splits the grid into per-replica shares across a fleet
// and must enumerate exactly the points — in exactly the order — a single
// swarmd would.
func ParseSweep(req api.SweepRequest) ([]exp.Point, bench.Scale, int64, *api.Error) {
	scale, seed, aerr := parseHarness(req.Scale, req.Seed)
	if aerr != nil {
		return nil, 0, 0, aerr
	}
	if len(req.Benches) == 0 || len(req.Scheds) == 0 || len(req.Cores) == 0 {
		return nil, 0, 0, api.Errorf(api.CodeBadRequest, "benches, scheds, and cores must each list at least one value")
	}
	for _, b := range req.Benches {
		if _, ok := bench.Registry[b]; !ok {
			return nil, 0, 0, api.Errorf(api.CodeUnknownBench, "unknown benchmark %q", b)
		}
	}
	var kinds []swarm.SchedKind
	for _, sc := range req.Scheds {
		k, err := cliutil.ParseSched(sc)
		if err != nil {
			return nil, 0, 0, api.Errorf(api.CodeUnknownSched, "%v", err)
		}
		kinds = append(kinds, k)
	}
	if aerr := checkCores(req.Cores); aerr != nil {
		return nil, 0, 0, aerr
	}
	points := exp.DedupSorted(exp.Grid(req.Benches, kinds, req.Cores, req.Profile))
	return points, scale, seed, nil
}

// handleRun serves POST /v1/run: one configuration, answered from the
// cache when warm. The response is a single-record result set encoded
// exactly as the CLI export encodes it. seeds > 1 fans the configuration
// out across the worker fleet as seed replicas — each cached, coalesced,
// and store-tiered under its own per-seed key — and answers with the
// merged record.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx, sp := traced(w, r, "swarmd.run")
	defer sp.End()
	pt := obs.StartTimer()
	var req api.RunRequest
	if aerr := api.DecodeRequest(w, r, &req); aerr != nil {
		pt.Observe(s.histParse)
		api.WriteError(w, aerr)
		return
	}
	cfg, aerr := ParseRun(req)
	pt.Observe(s.histParse)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	sp.SetAttr("key", cfg.Key())
	if aerr := s.injectRunFaults(ctx); aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	var st *swarm.Stats
	var src Source
	var err error
	if req.Seeds > 1 {
		st, err = s.RunSeeds(ctx, cfg, req.Seeds)
		src = SourceMerged
	} else {
		st, src, err = s.Stats(ctx, cfg)
	}
	if err != nil {
		api.WriteError(w, runError(err))
		return
	}
	rs := exp.ExportSet([]exp.Point{cfg.Point}, cfg.Scale, cfg.Seed,
		func(exp.Point) *swarm.Stats { return st })
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Swarmd-Source", string(src))
	sp.SetAttr("source", string(src))
	_, _ = w.Write(buf.Bytes())
}

// injectRunFaults fires the swarmd.run.slow and swarmd.run.err sites once
// at the start of every /v1/run and /v1/sweep, before any byte of the
// response: a slow or failing replica is so for every request, whatever
// its shape.
func (s *Service) injectRunFaults(ctx context.Context) *api.Error {
	if f, ok := s.siteSlow.Fire(); ok {
		if err := f.Sleep(ctx); err != nil {
			return runError(err)
		}
	}
	if f, ok := s.siteErr.Fire(); ok && f.Err != nil {
		return runError(f.Err)
	}
	return nil
}

// handleSweep serves POST /v1/sweep: the grid is sharded across the worker
// fleet and, for NDJSON, streamed in canonical configuration order — record
// i is written as soon as records 0..i have all completed, so output order
// is deterministic for any worker count even though completion order is not.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	ctx, sp := traced(w, r, "swarmd.sweep")
	defer sp.End()
	pt := obs.StartTimer()
	var req api.SweepRequest
	if aerr := api.DecodeRequest(w, r, &req); aerr != nil {
		pt.Observe(s.histParse)
		api.WriteError(w, aerr)
		return
	}
	points, scale, seed, aerr := ParseSweep(req)
	pt.Observe(s.histParse)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	sp.SetAttrInt("points", int64(len(points)))
	if aerr := s.injectRunFaults(ctx); aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	format := req.Format
	if format == "" {
		format = "ndjson"
	}

	switch format {
	case "ndjson":
		s.streamSweep(w, ctx, points, scale, seed)
	case "json", "csv":
		stats, err := s.runAll(ctx, points, scale, seed)
		if err != nil {
			api.WriteError(w, runError(err))
			return
		}
		rs := exp.ExportSet(points, scale, seed, func(p exp.Point) *swarm.Stats { return stats[p.Key()] })
		writeResultSet(w, rs, format, api.SweepFormats)
	default:
		api.WriteError(w, api.UnknownFormat(format, api.SweepFormats))
	}
}

// runAll executes every point through the cached/coalesced fleet path and
// returns the statistics keyed by configuration. The first failure cancels
// the rest of the grid — the response is an error either way, so finishing
// the remaining points would only burn fleet time.
func (s *Service) runAll(ctx context.Context, points []exp.Point, scale bench.Scale, seed int64) (map[string]*swarm.Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make([]runner.Job, len(points))
	for i, p := range points {
		p := p
		jobs[i] = runner.Job{
			Name: p.Key(),
			Run: func(int64) (*swarm.Stats, error) {
				st, _, err := s.Stats(ctx, Config{Scale: scale, Seed: seed, Point: p})
				return st, err
			},
		}
	}
	results := runner.Sweep(ctx, jobs, runner.Options{
		Parallel: s.opt.Workers,
		Seed:     seed,
		OnResult: func(res runner.Result) {
			if res.Err != nil {
				cancel()
			}
		},
	})
	if err := runner.FirstErr(results); err != nil {
		// The cancellation fans out to every unfinished job; report the
		// failure that triggered it, not a ripple.
		for _, res := range results {
			if res.Err != nil && !errors.Is(res.Err, context.Canceled) {
				return nil, res.Err
			}
		}
		return nil, err
	}
	stats := make(map[string]*swarm.Stats, len(points))
	for i, res := range results {
		stats[points[i].Key()] = res.Stats
	}
	return stats, nil
}

// streamSweep emits the sweep as NDJSON in the api framing: a header line
// carrying the schema and label fields, one compact record per line in
// canonical configuration order, and — only when every point streamed —
// the completion trailer. Reassembling the record lines into a ResultSet
// and encoding it as indented JSON reproduces the buffered "json" response
// byte for byte.
func (s *Service) streamSweep(w http.ResponseWriter, ctx context.Context, points []exp.Point, scale bench.Scale, seed int64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	header, err := api.EncodeHeader(api.StreamHeader{
		Schema: metrics.SchemaVersion, Fields: exp.ExportFields, Points: len(points),
	})
	if err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	written := int64(0)
	if n, err := w.Write(header); err != nil {
		return
	} else {
		written += int64(n)
	}
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	flush()

	// The first failure cancels the rest of the grid: an NDJSON stream has
	// no way to signal an error retroactively, so it is truncated instead —
	// a complete response always ends with the trailer line.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	next := 0 // next point index to emit
	lines := make(map[int][]byte, len(points))
	var streamErr error
	jobs := make([]runner.Job, len(points))
	for i, p := range points {
		p := p
		jobs[i] = runner.Job{
			Name: p.Key(),
			Run: func(int64) (*swarm.Stats, error) {
				st, _, err := s.Stats(ctx, Config{Scale: scale, Seed: seed, Point: p})
				return st, err
			},
		}
	}
	results := runner.Sweep(ctx, jobs, runner.Options{
		Parallel: s.opt.Workers,
		Seed:     seed,
		// OnResult runs serialized under the runner's lock: safe to write.
		OnResult: func(res runner.Result) {
			if streamErr != nil {
				return
			}
			if res.Err != nil {
				streamErr = res.Err
				cancel()
				return
			}
			p := points[res.Index]
			line, err := api.EncodeRecord(metrics.Record{
				Labels:   exp.PointLabels(p, scale, seed),
				Snapshot: res.Stats.Snapshot(),
			})
			if err != nil {
				streamErr = err
				cancel()
				return
			}
			lines[res.Index] = line
			for next < len(points) && lines[next] != nil {
				// Chaos hook: a fired stall site freezes the stream mid-line
				// (Latency) or kills it without the trailer (Fail) — the
				// truncation clients must detect and the gateway must absorb.
				if f, ok := s.siteStall.Fire(); ok {
					if err := f.Sleep(ctx); err != nil {
						streamErr = err
						cancel()
						return
					}
					if f.Err != nil {
						streamErr = f.Err
						cancel()
						return
					}
				}
				n, err := w.Write(lines[next])
				written += int64(n)
				if err != nil {
					streamErr = err
					cancel()
					return
				}
				delete(lines, next)
				next++
			}
			flush()
		},
	})
	if streamErr == nil {
		streamErr = runner.FirstErr(results)
	}
	if streamErr != nil {
		slog.Error("sweep stream aborted",
			"component", "swarmd",
			"trace", obs.Trace(ctx),
			"point", next,
			"points", len(points),
			"bytes", written,
			"err", streamErr)
		return
	}
	if trailer, err := api.EncodeTrailer(len(points)); err == nil {
		_, _ = w.Write(trailer)
		flush()
	}
}

// handleExperimentList serves GET /v1/experiments: the paper's experiment
// registry, in paper order.
func (s *Service) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	list := make([]api.ExperimentInfo, 0, len(exp.Registry))
	for _, e := range exp.Registry {
		list = append(list, api.ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(list)
}

// handleExperiment serves POST /v1/experiments/{id}: regenerate one paper
// table or figure as a service. Simulation points execute through the
// shared cache and worker fleet, so repeated figures are answered mostly
// from cache. format "text" returns the human-readable tables; the
// machine-readable formats return the same export the CLI emits.
func (s *Service) handleExperiment(w http.ResponseWriter, r *http.Request) {
	ctx, sp := traced(w, r, "swarmd.experiment")
	defer sp.End()
	pt := obs.StartTimer()
	e, err := exp.Find(r.PathValue("id"))
	if err != nil {
		pt.Observe(s.histParse)
		api.WriteError(w, api.Errorf(api.CodeUnknownExperiment, "%v", err))
		return
	}
	sp.SetAttr("experiment", e.ID)
	var req api.ExperimentRequest
	if aerr := api.DecodeRequest(w, r, &req); aerr != nil {
		pt.Observe(s.histParse)
		api.WriteError(w, aerr)
		return
	}
	scale, seed, aerr := parseHarness(req.Scale, req.Seed)
	pt.Observe(s.histParse)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	format := req.Format
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "csv", "ndjson", "text":
	default:
		// Reject up front: an experiment at full scale is minutes of work.
		api.WriteError(w, api.UnknownFormat(format, api.ExperimentFormats))
		return
	}
	opt := exp.DefaultOptions(scale)
	opt.Seed = seed
	opt.Parallel = s.opt.Workers
	opt.Validate = s.opt.Validate
	opt.Exec = s.Exec(scale, seed)
	opt.Gate = s.AcquireSlot
	if len(req.Cores) > 0 {
		if aerr := checkCores(req.Cores); aerr != nil {
			api.WriteError(w, aerr)
			return
		}
		opt.Cores = req.Cores
	}
	runner := exp.NewRunner(opt)

	var tables bytes.Buffer
	var tableOut io.Writer = &tables
	if format != "text" {
		tableOut = io.Discard
	}
	if err := e.Run(ctx, runner, tableOut); err != nil {
		api.WriteError(w, runError(err))
		return
	}
	s.countExperiment(e.ID)
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(tables.Bytes())
		return
	}
	writeResultSet(w, runner.Export(), format, api.ExperimentFormats)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WriteProm(w, s.PromMetrics())
}

// writeResultSet encodes a completed result set in the requested format.
// have is the calling endpoint's supported-format list, so an unsupported
// format is rejected with the formats that endpoint actually offers.
func writeResultSet(w http.ResponseWriter, rs *metrics.ResultSet, format string, have []string) {
	var buf bytes.Buffer
	var contentType string
	var err error
	switch format {
	case "json":
		contentType = "application/json"
		err = rs.WriteJSON(&buf)
	case "csv":
		contentType = "text/csv"
		err = rs.WriteCSV(&buf)
	case "ndjson":
		contentType = "application/x-ndjson"
		err = writeNDJSON(&buf, rs)
	default:
		api.WriteError(w, api.UnknownFormat(format, have))
		return
	}
	if err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(buf.Bytes())
}

// writeNDJSON encodes a completed result set in the api NDJSON framing:
// header line, one compact record per line, completion trailer.
func writeNDJSON(w io.Writer, rs *metrics.ResultSet) error {
	header, err := api.EncodeHeader(api.StreamHeader{
		Schema: rs.Schema, Fields: rs.Fields, Points: len(rs.Records),
	})
	if err != nil {
		return err
	}
	if _, err := w.Write(header); err != nil {
		return err
	}
	for _, rec := range rs.Records {
		line, err := api.EncodeRecord(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	trailer, err := api.EncodeTrailer(len(rs.Records))
	if err != nil {
		return err
	}
	_, err = w.Write(trailer)
	return err
}

// runError maps an execution failure to its wire error: cancellations and
// deadline hits mean this instance is draining or gave up — retryable
// against another replica — while everything else is a deterministic
// failure a retry would reproduce. Injected faults are the exception to
// "internal is final": the failure is a property of this instance's
// injection plan, not the configuration, so they stay retryable and the
// gateway routes around them.
func runError(err error) *api.Error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return api.Errorf(api.CodeShuttingDown, "%v", err)
	}
	e := api.Errorf(api.CodeInternal, "%v", err)
	if errors.Is(err, fault.ErrInjected) {
		e.Retryable = true
	}
	return e
}
