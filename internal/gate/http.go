package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"

	"swarmhints/internal/bench"
	"swarmhints/internal/cliutil"
	"swarmhints/internal/exp"
	"swarmhints/internal/fault"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/internal/service"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// The gateway serves the same /v1 surface as a single swarmd, on the same
// swarm/api contract. Requests are validated with the exact parse logic
// the replicas use (service.ParseRun/ParseSweep), so the gateway never
// forwards a point a replica would reject, and validation errors carry
// the same envelope codes a replica would return.

// Handler returns the gateway's HTTP API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", g.handleRun)
	mux.HandleFunc("POST /v1/sweep", g.handleSweep)
	mux.HandleFunc("GET /v1/experiments", g.handleExperimentList)
	mux.HandleFunc("POST /v1/experiments/{id}", g.handleExperiment)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	obs.Default.Mount(mux)
	if g.opt.FaultAdmin {
		mux.Handle("/v1/faults", fault.AdminHandler(fault.Default))
	}
	return mux
}

// traced begins (or continues, when the caller sent an X-Swarm-Trace
// header) the request's root span and echoes its trace on the response,
// so a client can immediately fetch /debug/traces/{id} for the request it
// just made. Callers must End the returned span.
func traced(w http.ResponseWriter, r *http.Request, name string) (context.Context, *obs.Span) {
	ctx, sp := obs.ContinueSpan(r.Context(), r.Header.Get(api.TraceHeader), name)
	if sp != nil {
		w.Header().Set(api.TraceHeader, sp.Header())
	}
	return ctx, sp
}

// pointRequest builds the canonical per-point /v1/run request: scale and
// seed resolved and explicit, the scheduler in its parseable spelling.
func pointRequest(p exp.Point, scale bench.Scale, seed int64) api.RunRequest {
	return api.Point{
		Bench: p.Name, Sched: cliutil.SchedFlag(p.Kind),
		Cores: p.Cores, Profile: p.Profile,
	}.Run(scale.String(), seed)
}

// handleRun serves POST /v1/run by routing the point to one replica. The
// response is the replica's single-record result set re-encoded — byte
// identical, since both ends marshal the same metrics.ResultSet shape.
func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx, sp := traced(w, r, "swarmgate.run")
	defer sp.End()
	var req api.RunRequest
	if aerr := api.DecodeRequest(w, r, &req); aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	cfg, aerr := service.ParseRun(req)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	sp.SetAttr("key", cfg.Key())
	if req.Seeds > 1 {
		g.handleRunSeeds(w, ctx, cfg, req.Seeds)
		return
	}
	rec, url, aerr := g.runPoint(ctx, pointRequest(cfg.Point, cfg.Scale, cfg.Seed))
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	g.points.Add(1)
	rs := metrics.ResultSet{Schema: metrics.SchemaVersion, Fields: exp.ExportFields,
		Records: []metrics.Record{rec}}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Swarmgate-Replica", url)
	_, _ = w.Write(buf.Bytes())
}

// handleRunSeeds serves a seeds > 1 run request: the configuration's seed
// replicas become per-seed /v1/run requests — the same routing unit as a
// sweep point, balanced, retried, and bounded exactly alike — and the
// responses are merged in fixed seed order. Each replica executes (and
// store-caches) one seed under its ordinary per-seed key, so the merged
// answer is byte-identical to a single swarmd serving the same seeds
// request, and incremental when the fan-out is repeated with more seeds.
func (g *Gateway) handleRunSeeds(w http.ResponseWriter, ctx context.Context, cfg service.Config, n int) {
	seeds := exp.ReplicaSeeds(cfg.Seed, n)
	rrs := make([]api.RunRequest, len(seeds))
	for i, s := range seeds {
		rrs[i] = pointRequest(cfg.Point, cfg.Scale, s)
	}
	recs, aerr := g.runAllPoints(ctx, rrs, nil)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	per := make([]*swarm.Stats, len(recs))
	for i := range recs {
		per[i] = swarm.StatsFromSnapshot(recs[i].Snapshot)
	}
	merged, err := swarm.MergeStats(per)
	if err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	rs := exp.ExportSet([]exp.Point{cfg.Point}, cfg.Scale, cfg.Seed,
		func(exp.Point) *swarm.Stats { return merged })
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// handleSweep serves POST /v1/sweep: the grid is split into one share per
// admitted replica, each streamed from its replica as one /v1/sweep, and
// the records are reassembled in canonical configuration order — the same
// order, framing, and bytes a single swarmd would emit.
func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	ctx, sp := traced(w, r, "swarmgate.sweep")
	defer sp.End()
	var req api.SweepRequest
	if aerr := api.DecodeRequest(w, r, &req); aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	points, scale, seed, aerr := service.ParseSweep(req)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	sp.SetAttrInt("points", int64(len(points)))
	format := req.Format
	if format == "" {
		format = "ndjson"
	}
	rrs := make([]api.RunRequest, len(points))
	for i, p := range points {
		rrs[i] = pointRequest(p, scale, seed)
	}
	shares := partition(points, scale, seed, g.admitted())
	g.sweeps.Add(1)

	switch format {
	case "ndjson":
		g.streamSweep(w, ctx, rrs, shares)
	case "json", "csv":
		recs, aerr := g.runAllPoints(ctx, rrs, shares)
		if aerr != nil {
			api.WriteError(w, aerr)
			return
		}
		rs := metrics.ResultSet{Schema: metrics.SchemaVersion, Fields: exp.ExportFields, Records: recs}
		g.writeResultSet(w, &rs, format)
	default:
		api.WriteError(w, api.UnknownFormat(format, api.SweepFormats))
	}
}

// writeResultSet encodes a reassembled result set in a buffered format.
func (g *Gateway) writeResultSet(w http.ResponseWriter, rs *metrics.ResultSet, format string) {
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
	default:
		api.WriteError(w, api.UnknownFormat(format, api.SweepFormats))
		return
	}
	if err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(buf.Bytes())
}

// runAllPoints is fill's buffered writer: it returns the records in point
// order once every point has completed. shares may be nil, which routes
// every point through the per-point path (the seeds fan-out).
func (g *Gateway) runAllPoints(ctx context.Context, rrs []api.RunRequest, shares []share) ([]metrics.Record, *api.Error) {
	recs := make([]metrics.Record, len(rrs))
	if err := g.fill(ctx, rrs, shares, func(i int, rec metrics.Record) error {
		recs[i] = rec
		return nil
	}); err != nil {
		return nil, api.AsError(err)
	}
	return recs, nil
}

// streamSweep is fill's NDJSON writer: it emits the sweep in the api
// framing, writing record i as soon as records 0..i have all completed —
// the same prefix-order streaming a single swarmd performs, so the stream
// bytes are identical. A point that fails after its retries truncates the
// stream (no trailer), exactly as a single swarmd's mid-grid failure would.
func (g *Gateway) streamSweep(w http.ResponseWriter, ctx context.Context, rrs []api.RunRequest, shares []share) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	header, err := api.EncodeHeader(api.StreamHeader{
		Schema: metrics.SchemaVersion, Fields: exp.ExportFields, Points: len(rrs),
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

	next := 0
	lines := make([][]byte, len(rrs))
	streamErr := g.fill(ctx, rrs, shares, func(i int, rec metrics.Record) error {
		line, err := api.EncodeRecord(rec)
		if err != nil {
			return err
		}
		lines[i] = line
		for next < len(rrs) && lines[next] != nil {
			n, err := w.Write(lines[next])
			written += int64(n)
			if err != nil {
				return err
			}
			lines[next] = nil
			next++
		}
		flush()
		return nil
	})
	if streamErr != nil {
		slog.Error("sweep stream aborted",
			"component", "swarmgate",
			"trace", obs.Trace(ctx),
			"point", next,
			"points", len(rrs),
			"bytes", written,
			"err", streamErr)
		return
	}
	if trailer, err := api.EncodeTrailer(len(rrs)); err == nil {
		_, _ = w.Write(trailer)
		flush()
	}
}

// handleExperimentList proxies GET /v1/experiments from a replica and
// re-encodes it — the listing is identical on every replica.
func (g *Gateway) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	attempts := g.opt.Retries + 1
	var lastErr *api.Error
	last := -1
	for a := 0; a < attempts; a++ {
		i := g.pick(last)
		rep := g.replicas[i]
		list, err := rep.client.Experiments(r.Context())
		if err == nil {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(list)
			return
		}
		lastErr = api.AsError(err)
		if drains(lastErr) {
			rep.healthy.Store(false)
		}
		if !lastErr.Retryable {
			break
		}
		last = i
	}
	api.WriteError(w, lastErr)
}

// handleExperiment proxies POST /v1/experiments/{id} to one replica — an
// experiment is a single unit of work (its points still hit the shared
// store, so fleet-wide reuse holds). Retryable failures re-route to a
// different replica like any point.
func (g *Gateway) handleExperiment(w http.ResponseWriter, r *http.Request) {
	ctx, sp := traced(w, r, "swarmgate.experiment")
	defer sp.End()
	id := r.PathValue("id")
	sp.SetAttr("experiment", id)
	var req api.ExperimentRequest
	if aerr := api.DecodeRequest(w, r, &req); aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	attempts := g.opt.Retries + 1
	var lastErr *api.Error
	last := -1
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			api.WriteError(w, api.Errorf(api.CodeShuttingDown, "%v", err))
			return
		}
		i := g.pick(last)
		rep := g.replicas[i]
		body, contentType, err := rep.client.Experiment(ctx, id, req)
		if err == nil {
			w.Header().Set("Content-Type", contentType)
			w.Header().Set("X-Swarmgate-Replica", rep.url)
			_, _ = io.Copy(w, body)
			body.Close()
			return
		}
		lastErr = api.AsError(err)
		if drains(lastErr) {
			rep.healthy.Store(false)
		}
		if !lastErr.Retryable {
			break
		}
		last = i
	}
	api.WriteError(w, lastErr)
}

// handleHealthz reports the gateway's own liveness plus the per-replica
// health flags (keys sorted by URL, so the body is deterministic).
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c := g.Counters()
	body := struct {
		Status   string          `json:"status"`
		Replicas map[string]bool `json:"replicas"`
	}{Status: "ok", Replicas: c.Healthy}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(body)
	if err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	_, _ = w.Write(append(b, '\n'))
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WriteProm(w, g.PromMetrics())
}
