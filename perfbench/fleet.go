package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/cliutil"
	"swarmhints/internal/exp"
	"swarmhints/internal/gate"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/internal/service"
	"swarmhints/internal/store"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// Fleet shape. Every other setting is the daemons' shipped default, taken
// from cmd/swarmd and cmd/swarmgate.
const (
	replicas = 2
	// lruEntries is swarmd's -cache. The shipped 4096 would need a key set
	// of 16k tiny runs to stay four times larger, about 50 s of engine time
	// per set-up; 256 keeps the same LRU-to-key-set ratio at a sixteenth of
	// the cost.
	lruEntries = 256
)

// fleet is an in-process swarmgate in front of swarmd replicas sharing one
// result store, each serving on its own loopback listener.
type fleet struct {
	stores  []*store.Store
	svcs    []*service.Service
	gw      *gate.Gateway
	servers []*http.Server
	serving sync.WaitGroup
	urls    []string // replica base URLs
	gateURL string
	hc      *http.Client

	decodeMu sync.Mutex
	decode   []float64 // client decode ms per response, while recording
	record   bool
}

// startFleet brings the fleet up on a store directory and waits until the
// gateway answers its health check. conns bounds the client's connections.
func startFleet(ctx context.Context, dir string, conns int) (*fleet, error) {
	f := &fleet{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}}
	for i := 0; i < replicas; i++ {
		// One handle per replica, as separate daemons would hold.
		st, err := cliutil.OpenStore(dir, "")
		if err != nil {
			f.close()
			return nil, err
		}
		f.stores = append(f.stores, st)
		svc := service.New(service.Options{CacheEntries: lruEntries, Validate: true, Store: st, MaxPending: 256})
		f.svcs = append(f.svcs, svc)
		url, err := f.serve(svc.Handler(), svc.Context())
		if err != nil {
			f.close()
			return nil, err
		}
		f.urls = append(f.urls, url)
	}
	gw, err := gate.New(gate.Options{
		Replicas: f.urls, Balancer: gate.BalancerAdaptive, PointTimeout: 5 * time.Minute,
		Retries: 3, ProbeInterval: time.Second, Seed: 1, Hedge: true,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	if f.gateURL, err = f.serve(gw.Handler(), gw.Context()); err != nil {
		f.close()
		return nil, err
	}
	if err := api.NewClient(f.gateURL, f.hc).Healthz(ctx); err != nil {
		f.close()
		return nil, fmt.Errorf("gateway health: %w", err)
	}
	return f, nil
}

func (f *fleet) serve(h http.Handler, base context.Context) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, BaseContext: func(net.Listener) context.Context { return base }}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server, the gateway and the replicas, and waits for
// the serving goroutines to exit.
func (f *fleet) close() {
	for _, srv := range f.servers {
		_ = srv.Close()
	}
	f.serving.Wait()
	if f.gw != nil {
		f.gw.Close()
	}
	for _, svc := range f.svcs {
		svc.Close()
	}
	f.hc.CloseIdleConnections()
}

// post sends a JSON body and returns the response body and its trace
// header. The request carries ctx's span, if any, as its trace parent.
func (f *fleet) post(ctx context.Context, path string, body any) ([]byte, string, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.gateURL+path, bytes.NewReader(b))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if h := obs.SpanFromContext(ctx).Header(); h != "" {
		req.Header.Set(api.TraceHeader, h)
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", api.DecodeError(resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header.Get(api.TraceHeader), nil
}

func (f *fleet) noteDecode(d time.Duration) {
	f.decodeMu.Lock()
	if f.record {
		f.decode = append(f.decode, ms(d))
	}
	f.decodeMu.Unlock()
}

// run requests one tiny-scale configuration and checks the answer: one
// record, labelled with the configuration, whose cycles obey the
// conservation law. It returns the raw body for byte-identity checks.
func (f *fleet) run(ctx context.Context, k runKey) ([]byte, string, error) {
	p := exp.Point{Name: k.bench, Kind: k.kind, Cores: k.cores}
	seed := k.seed
	body, trace, err := f.post(ctx, "/v1/run", api.RunRequest{
		Bench: k.bench, Sched: cliutil.SchedFlag(k.kind), Cores: k.cores, Scale: "tiny", Seed: &seed,
	})
	if err != nil {
		return nil, "", err
	}
	t := time.Now()
	var rs metrics.ResultSet
	err = json.Unmarshal(body, &rs)
	f.noteDecode(time.Since(t))
	if err != nil {
		return nil, "", fmt.Errorf("decoding run: %w", err)
	}
	if len(rs.Records) != 1 {
		return nil, "", fmt.Errorf("run answered %d records, want 1", len(rs.Records))
	}
	rec := rs.Records[0]
	if want := exp.PointLabels(p, bench.Tiny, k.seed); !maps.Equal(rec.Labels, want) {
		return nil, "", fmt.Errorf("run labels %v, want %v", rec.Labels, want)
	}
	if err := checkConservation(swarm.StatsFromSnapshot(rec.Snapshot)); err != nil {
		return nil, "", err
	}
	return body, trace, nil
}

// sweep requests a grid as NDJSON and decodes it with api.StreamDecoder:
// the stream must end in its completion trailer and carry exactly one
// record per grid point.
func (f *fleet) sweep(ctx context.Context, req api.SweepRequest) ([]metrics.Record, string, error) {
	req.Format = "ndjson"
	body, trace, err := f.post(ctx, "/v1/sweep", req)
	if err != nil {
		return nil, "", err
	}
	t := time.Now()
	recs, err := decodeStream(body)
	f.noteDecode(time.Since(t))
	if err != nil {
		return nil, "", err
	}
	if want := len(req.Benches) * len(req.Scheds) * len(req.Cores); len(recs) != want {
		return nil, "", fmt.Errorf("sweep answered %d records, want %d", len(recs), want)
	}
	for _, rec := range recs {
		if err := checkConservation(swarm.StatsFromSnapshot(rec.Snapshot)); err != nil {
			return nil, "", err
		}
	}
	return recs, trace, nil
}

func decodeStream(body []byte) ([]metrics.Record, error) {
	dec, err := api.NewStreamDecoder(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var recs []metrics.Record
	for {
		rec, ok, err := dec.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if dec.Trailer() == nil || dec.Trailer().Points != dec.Header().Points {
		return nil, errors.New("sweep stream lacks a complete trailer")
	}
	return recs, nil
}

// fig2Sweep is the fig2-tiny grid's shape (every scheduler at 1 and 4
// cores) for one benchmark at seed.
func fig2Sweep(name string, seed int64) api.SweepRequest {
	s := seed
	return api.SweepRequest{Benches: []string{name}, Scheds: schedFlags(fig2Kinds), Cores: fig2Cores, Scale: "tiny", Seed: &s}
}

func schedFlags(ks []swarm.SchedKind) []string {
	var out []string
	for _, k := range ks {
		out = append(out, cliutil.SchedFlag(k))
	}
	return out
}

// summarySweeps expresses the tiny-scale Sec. VI-B grid (max cores 64) as
// the four cross-product sweeps that cover exactly its 48 points.
func summarySweeps(seed int64) []api.SweepRequest {
	s := seed
	sw := func(names []string, kinds []swarm.SchedKind, cores []int) api.SweepRequest {
		return api.SweepRequest{Benches: names, Scheds: schedFlags(kinds), Cores: cores, Scale: "tiny", Seed: &s}
	}
	var fg []string
	for _, n := range bench.FGNames() {
		fg = append(fg, n+"-fg")
	}
	return []api.SweepRequest{
		sw(bench.Names(), []swarm.SchedKind{swarm.Random}, []int{1, tinyMaxCores}),
		sw(bench.Names(), []swarm.SchedKind{swarm.Hints, swarm.LBHints}, []int{tinyMaxCores}),
		sw(fg, []swarm.SchedKind{swarm.Random}, []int{1}),
		sw(fg, []swarm.SchedKind{swarm.Hints, swarm.LBHints}, []int{tinyMaxCores}),
	}
}

// tinyMaxCores is the largest core count of the tiny-scale sweep, the
// "max cores" of the tiny Sec. VI-B summary.
const tinyMaxCores = 64

// fleetTarget sends the open-loop requests to the gateway.
type fleetTarget struct {
	b *benchRun
	f *fleet
	// bodies, when non-nil, receives every sampleEvery-th run's body for
	// the byte-identity check.
	mu          sync.Mutex
	bodies      map[runKey][]byte
	sampleEvery int
	n           int
	traces      *traceLog
}

func (t *fleetTarget) do(ctx context.Context, r request) error {
	var sp *obs.Span
	if t.traces != nil && obs.Enabled() {
		name := "bench.run"
		if r.sweep {
			name = "bench.sweep"
		}
		ctx, sp = obs.StartSpan(ctx, name)
	}
	var trace string
	var err error
	if r.sweep {
		_, trace, err = t.f.sweep(ctx, fig2Sweep(r.sweepBench, r.sweepSeed))
	} else {
		var body []byte
		body, trace, err = t.f.run(ctx, r.key)
		if err == nil && t.bodies != nil {
			t.mu.Lock()
			if t.n++; t.n%t.sampleEvery == 0 {
				t.bodies[r.key] = body
			}
			t.mu.Unlock()
		}
	}
	sp.End()
	if err != nil {
		if r.sweep {
			return t.b.fail("sweep seed %d: %v", r.sweepSeed, err)
		}
		return t.b.fail("run %v: %v", r.key, err)
	}
	if sp != nil {
		t.traces.add(trace, r.sweep)
	}
	return nil
}

// checkBodies re-executes each sampled run with exp.RunPoint and requires
// the fleet's answer to be byte-identical to its canonical export.
func (t *fleetTarget) checkBodies() {
	for k, body := range t.bodies {
		p := exp.Point{Name: k.bench, Kind: k.kind, Cores: k.cores}
		st, err := exp.RunPoint(p, bench.Tiny, k.seed, true)
		if err != nil {
			t.b.fail("reference run %v: %v", k, err)
			continue
		}
		want, err := exportBytes(p, bench.Tiny, k.seed, st)
		if err != nil {
			t.b.fail("reference export %v: %v", k, err)
			continue
		}
		if !bytes.Equal(body, want) {
			t.b.fail("run %v: answer differs from exp.RunPoint's export", k)
		}
	}
}

// scrape reads a server's /metrics page into series → value.
func (f *fleet) scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// fleetReading is the fleet's exported counters and histograms at one
// instant: each replica's /metrics page plus the in-process counters.
type fleetReading struct {
	prom  []map[string]float64 // per replica
	svc   []service.Counters
	store []store.Counters
	gate  gate.Counters
}

func (f *fleet) read(ctx context.Context) (fleetReading, error) {
	var r fleetReading
	for i, u := range f.urls {
		m, err := f.scrape(ctx, u)
		if err != nil {
			return r, err
		}
		r.prom = append(r.prom, m)
		r.svc = append(r.svc, f.svcs[i].Counters())
		r.store = append(r.store, f.stores[i].Counters())
	}
	r.gate = f.gw.Counters()
	return r, nil
}

// engineRuns is the number of simulations the replicas have completed,
// read once the fleet is idle: a hedge the gateway abandoned can still
// finish its simulation after the request it raced has been answered. The
// fleet is idle when no replica has a simulation queued or in flight and
// the count has held still over three readings 20 ms apart.
func (f *fleet) engineRuns(ctx context.Context) (uint64, error) {
	deadline := time.Now().Add(30 * time.Second)
	var last uint64
	for still := 0; ; {
		r, err := f.read(ctx)
		if err != nil {
			return 0, err
		}
		busy := false
		for _, c := range r.svc {
			busy = busy || c.InFlight > 0 || c.Queued > 0
		}
		if n := r.engineRuns(); busy || n != last {
			last, still = n, 0
		} else if still++; still == 3 {
			return n, nil
		}
		if time.Now().After(deadline) {
			return 0, errors.New("fleet still busy 30 s after set-up")
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// engineRuns is the number of simulations the replicas had completed.
func (r fleetReading) engineRuns() uint64 {
	var n uint64
	for _, c := range r.svc {
		for _, v := range c.RunsByBench {
			n += v
		}
	}
	return n
}

// histMean returns the mean, in ms, of a histogram series summed over the
// replicas between two readings (0 when nothing was observed). The store's
// op histogram is process-wide, so it is read from the first replica only.
func histMean(a, b fleetReading, name, label string, replicasToSum int) float64 {
	var sum, count float64
	for i := 0; i < replicasToSum; i++ {
		sum += b.prom[i][name+"_sum{"+label+"}"] - a.prom[i][name+"_sum{"+label+"}"]
		count += b.prom[i][name+"_count{"+label+"}"] - a.prom[i][name+"_count{"+label+"}"]
	}
	if count == 0 {
		return 0
	}
	return sum / count * 1000
}
