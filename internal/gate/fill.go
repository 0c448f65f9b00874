package gate

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"swarmhints/internal/exp"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/swarm/api"
)

// filler executes one request's points across the fleet: each share
// streams from its replica, the points a share fails to deliver fall back
// to the per-point path, and a straggling share's missing points are
// hedged per point. Whichever path brings a point's record first wins it;
// put receives every point exactly once, serialized under mu.
type filler struct {
	g      *Gateway
	rrs    []api.RunRequest
	put    func(i int, rec metrics.Record) error
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{} // bounds the per-point legs (Options.Concurrency)
	wg     sync.WaitGroup

	mu      sync.Mutex
	won     []bool
	owner   []*shareRun          // the share carrying each point (nil: per-point only)
	pcancel []context.CancelFunc // cancels a point's per-point legs once it is won
	pctx    []context.Context
	err     error // first failure; ends the request
}

// shareRun is one share in flight on replica idx.
type shareRun struct {
	share
	idx    int
	ctx    context.Context
	cancel context.CancelFunc // fired once other paths won every point it owed
	owed   int                // its points nobody has won yet (under filler.mu)
	done   bool               // settled: no more hedges (under filler.mu)
	hedged bool               // its hedge timer fired (under filler.mu)
}

// fill runs every point of rrs, streaming shares (when given) from
// distinct balancer-chosen replicas and the remaining points through the
// per-point path, and hands each record to put as soon as it wins its
// point. It returns the first failure: a point that failed after its
// retries, a put error, or the caller's cancellation.
func (g *Gateway) fill(ctx context.Context, rrs []api.RunRequest, shares []share, put func(int, metrics.Record) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f := &filler{
		g: g, rrs: rrs, put: put, ctx: ctx, cancel: cancel,
		sem:     make(chan struct{}, g.opt.Concurrency),
		won:     make([]bool, len(rrs)),
		owner:   make([]*shareRun, len(rrs)),
		pcancel: make([]context.CancelFunc, len(rrs)),
		pctx:    make([]context.Context, len(rrs)),
	}
	runs := make([]*shareRun, len(shares))
	chosen := make([]int, 0, len(shares))
	for k, sh := range shares {
		s := &shareRun{share: sh, idx: g.pick(chosen...), owed: len(sh.points)}
		s.ctx, s.cancel = context.WithCancel(ctx)
		chosen = append(chosen, s.idx)
		for _, i := range sh.points {
			f.owner[i] = s
		}
		runs[k] = s
	}
	f.mu.Lock()
	for i := range rrs {
		if f.owner[i] == nil {
			f.retryLocked(i, 0, -1, nil)
		}
	}
	f.mu.Unlock()
	for _, s := range runs {
		f.wg.Add(1)
		go f.runShare(s)
	}
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		for i, w := range f.won {
			if !w { // only reachable when the caller went away
				f.err = api.Errorf(api.CodeShuttingDown, "point %d unanswered: %v", i, ctx.Err())
				break
			}
		}
	}
	return f.err
}

// claim hands point i's record to put unless the point is already won.
// by is the share that delivered it (nil for a per-point leg). A share
// whose every point was won elsewhere is canceled: nothing it could still
// deliver would be used.
func (f *filler) claim(i int, rec metrics.Record, by *shareRun) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.won[i] || f.err != nil {
		return false
	}
	f.won[i] = true
	f.g.points.Add(1)
	if c := f.pcancel[i]; c != nil {
		c()
	}
	if s := f.owner[i]; s != nil {
		if s.owed--; s.owed == 0 && s != by {
			s.cancel()
		}
	}
	if err := f.put(i, rec); err != nil {
		f.failLocked(err)
	}
	return true
}

// failLocked records a request-ending failure and cancels everything still
// running. A root cause is preferred over the cancellation ripples it sets
// off. Callers hold f.mu.
func (f *filler) failLocked(err error) {
	if f.err == nil || (api.AsError(f.err).Code == api.CodeShuttingDown && api.AsError(err).Code != api.CodeShuttingDown) {
		f.err = err
	}
	f.cancel()
}

// pointCtxLocked returns the context of point i's per-point legs, canceled
// once the point is won. Callers hold f.mu.
func (f *filler) pointCtxLocked(i int) context.Context {
	if f.pctx[i] == nil {
		f.pctx[i], f.pcancel[i] = context.WithCancel(f.ctx)
	}
	return f.pctx[i]
}

// legLocked starts one per-point goroutine for point i under the concurrency
// bound. Callers hold f.mu, which keeps wg.Add ahead of fill's Wait.
func (f *filler) legLocked(i int, run func(ctx context.Context)) {
	ctx := f.pointCtxLocked(i)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		select {
		case f.sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		defer func() { <-f.sem }()
		run(ctx)
	}()
}

// retryLocked routes point i through the per-point path (runPoint's retry
// loop) from attempt first on, steering clear of replica last. Its failure
// ends the request unless the point was won meanwhile.
func (f *filler) retryLocked(i, first, last int, lastErr *api.Error) {
	f.legLocked(i, func(ctx context.Context) {
		rec, _, aerr := f.g.retryPoint(ctx, f.rrs[i], first, last, lastErr)
		if aerr == nil {
			f.claim(i, rec, nil)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if !f.won[i] {
			f.failLocked(aerr)
		}
	})
}

// hedgeShare races every point the share still owes on another replica,
// once per share. A hedge that fails leaves the point to its share (and,
// should the share fail too, to the per-point fallback).
func (f *filler) hedgeShare(s *shareRun) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.done || s.hedged || f.err != nil {
		return
	}
	s.hedged = true
	for _, i := range s.points {
		if f.won[i] {
			continue
		}
		j := f.g.pick(s.idx)
		if j == s.idx {
			return // no other replica to race on
		}
		f.legLocked(i, func(ctx context.Context) {
			f.g.runLeg(ctx, f.rrs[i], j, false, true, func(rec metrics.Record) bool {
				return f.claim(i, rec, nil)
			})
		})
	}
}

// runShare streams one share from its replica and settles it. Every
// record is a point's attempt on the replica: its time since the share's
// previous record (or start) feeds the hedge-delay estimate and the
// balancer, restarts the point-timeout watchdog and the hedge timer, and
// is observed in the attempt histogram when the record wins its point.
// The share itself is one upstream request: one balancer pick and final
// Observe, one breaker verdict, one gate.attempt span whose points it did
// not win each get a child span of their own.
func (f *filler) runShare(s *shareRun) {
	defer f.wg.Done()
	g := f.g
	r := g.replicas[s.idx]
	r.routed.Add(1)
	probe := r.brk.enter()
	r.inflight.Add(1)
	defer r.inflight.Add(-1)

	// A share canceled through s.ctx (caller gone, or every point won
	// elsewhere) is no verdict on the replica; a watchdog hit on wctx is.
	wctx, wcancel := context.WithCancel(s.ctx)
	defer wcancel()
	var watchdog, hedgeT *time.Timer
	if g.opt.PointTimeout > 0 {
		watchdog = time.AfterFunc(g.opt.PointTimeout, wcancel)
		defer watchdog.Stop()
	}
	armHedge := func() {
		if !g.opt.Hedge || len(g.replicas) < 2 {
			return
		}
		if d, ok := g.lat.hedgeDelay(); !ok {
			return
		} else if hedgeT == nil {
			hedgeT = time.AfterFunc(d, func() { f.hedgeShare(s) })
		} else {
			hedgeT.Reset(d)
		}
	}
	armHedge()
	rctx, sp := obs.StartSpan(wctx, "gate.attempt")
	sp.SetAttr("replica", r.url)
	if sp != nil {
		names := make([]string, len(s.points))
		for k, i := range s.points {
			names[k] = pointName(f.rrs[i])
		}
		sp.SetAttr("point", strings.Join(names, ","))
		sp.SetAttrInt("points", int64(len(s.points)))
	}

	last := time.Now()
	var gap time.Duration // the latest record's gap, not yet reported to the balancer
	wonHere := make([]bool, len(s.points))
	n := 0
	_, err := r.client.Sweep(rctx, s.req, func(rec metrics.Record) error {
		now := time.Now()
		if n >= len(s.points) || labelKey(rec.Labels) != s.keys[n] {
			// A malformed answer from a reachable replica: instance-bound,
			// so retryable elsewhere, but no health demotion.
			return &api.Error{Code: api.CodeInternal, Retryable: true,
				Message: fmt.Sprintf("share record %d is %q, not the share's next point", n, labelKey(rec.Labels))}
		}
		if watchdog != nil {
			watchdog.Reset(g.opt.PointTimeout)
		}
		if n > 0 { // the last record's gap goes with the share's final Observe
			g.bal.Observe(s.idx, gap, OutcomeProgress)
		}
		gap, last = now.Sub(last), now
		g.lat.observe(gap)
		if f.claim(s.points[n], rec, s) {
			wonHere[n] = true
			g.histOK.Observe(gap)
		}
		n++
		armHedge()
		return nil
	})
	if hedgeT != nil {
		hedgeT.Stop()
	}
	lat := time.Since(last)

	f.mu.Lock()
	s.done = true
	missing := make([]bool, len(s.points)) // won by nobody yet: the fallback's work
	var owed []int
	for k, i := range s.points {
		if !wonHere[k] && !f.won[i] {
			missing[k] = true
			owed = append(owed, i)
		}
	}
	f.mu.Unlock()

	missingOutcome, missingHist := attemptCanceled, g.histCanceled
	switch {
	case err == nil:
		g.bal.Observe(s.idx, gap, OutcomeSuccess)
		r.brk.success()
		r.healthy.Store(true) // in-band recovery
		sp.SetAttr("outcome", attemptOK)
	case s.ctx.Err() != nil:
		if n > 0 {
			g.bal.Observe(s.idx, gap, OutcomeProgress)
		}
		g.bal.Observe(s.idx, lat, OutcomeCanceled)
		r.brk.canceled(probe)
		sp.SetAttr("outcome", attemptCanceled)
	default:
		ae := api.AsError(err)
		if n > 0 {
			g.bal.Observe(s.idx, gap, OutcomeProgress)
		}
		g.bal.Observe(s.idx, lat, OutcomeFailure)
		// Every point the share still owed failed here, as if each had
		// been its own request.
		for k := 0; k < max(1, len(owed)); k++ {
			r.failed.Add(1)
			r.brk.failure()
		}
		if drains(ae) {
			r.healthy.Store(false)
		}
		sp.SetAttr("outcome", attemptFailure)
		missingOutcome, missingHist = attemptFailure, g.histFailure
		f.mu.Lock()
		if f.ctx.Err() == nil {
			for _, i := range owed {
				f.retryLocked(i, 1, s.idx, ae)
			}
		}
		f.mu.Unlock()
	}
	// Points the share did not win: lost to a faster path (canceled), or
	// never delivered (the share's own outcome).
	for k, i := range s.points {
		if wonHere[k] {
			continue
		}
		outcome, h := attemptCanceled, g.histCanceled
		if missing[k] {
			outcome, h = missingOutcome, missingHist
		}
		h.Observe(lat)
		if sp != nil {
			_, psp := obs.StartSpan(rctx, "gate.attempt")
			psp.SetAttr("replica", r.url)
			psp.SetAttr("point", pointName(f.rrs[i]))
			psp.SetAttr("outcome", outcome)
			psp.End()
		}
	}
	sp.End()
}

// labelKey joins a record's export labels in ExportFields order: equal
// keys mean the same configuration point within the same harness.
func labelKey(labels map[string]string) string {
	var b strings.Builder
	for k, f := range exp.ExportFields {
		if k > 0 {
			b.WriteByte('/')
		}
		b.WriteString(labels[f])
	}
	return b.String()
}
