package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"swarmhints/internal/obs"
)

// traceLog collects the trace IDs of a traced chunk's requests, as echoed
// in their X-Swarm-Trace response headers.
type traceLog struct {
	mu     sync.Mutex
	traces []tracedRequest
}

type tracedRequest struct {
	id    obs.TraceID
	sweep bool
}

func (l *traceLog) add(header string, sweep bool) {
	id, _, ok := obs.ParseHeader(header)
	if !ok {
		return
	}
	l.mu.Lock()
	l.traces = append(l.traces, tracedRequest{id, sweep})
	l.mu.Unlock()
}

func (l *traceLog) drain() []tracedRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.traces
	l.traces = nil
	return out
}

// layerTimes accumulates per-layer time over fetched traces.
type layerTimes struct {
	requests, sweeps int
	self             map[string]time.Duration // span name → summed self time
	total            map[string]time.Duration // span name → summed duration
	count            map[string]int           // span name → spans
	sweepAttempts    int                      // gate.attempt spans under sweep requests
}

func newLayerTimes() *layerTimes {
	return &layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, count: map[string]int{}}
}

// add folds one trace's spans in: each span's self time is its duration
// minus the part of it its children cover.
func (lt *layerTimes) add(spans []obs.SpanJSON, sweep bool) {
	lt.requests++
	if sweep {
		lt.sweeps++
	}
	ivs := make(map[string]span, len(spans))
	children := make(map[string][]span)
	var t0 time.Time
	for i, sp := range spans {
		if i == 0 || sp.Start.Before(t0) {
			t0 = sp.Start
		}
	}
	for _, sp := range spans {
		s := sp.Start.Sub(t0)
		iv := span{s, s + time.Duration(sp.DurNs)}
		ivs[sp.Span] = iv
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], iv)
		}
	}
	for _, sp := range spans {
		iv := ivs[sp.Span]
		lt.self[sp.Name] += selfTime(iv, children[sp.Span])
		lt.total[sp.Name] += iv.end - iv.start
		lt.count[sp.Name]++
		if sweep && sp.Name == "gate.attempt" {
			lt.sweepAttempts++
		}
	}
}

// perRequestMs is the summed self time of the named spans per traced
// request, in ms.
func (lt *layerTimes) perRequestMs(names ...string) float64 {
	if lt.requests == 0 {
		return 0
	}
	var d time.Duration
	for _, n := range names {
		d += lt.self[n]
	}
	return ms(d) / float64(lt.requests)
}

// meanMs is the mean duration of the named span, in ms.
func (lt *layerTimes) meanMs(name string) float64 {
	if lt.count[name] == 0 {
		return 0
	}
	return ms(lt.total[name]) / float64(lt.count[name])
}

// fetchTrace reads one trace from the gateway's /debug/traces/{id}.
func (f *fleet) fetchTrace(ctx context.Context, id obs.TraceID) ([]obs.SpanJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.gateURL+"/debug/traces/"+id.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	var out struct {
		Spans []obs.SpanJSON `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Spans, nil
}
