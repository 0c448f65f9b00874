package conflict

import (
	"swarmhints/internal/flat"
	"swarmhints/internal/mem"
	"swarmhints/internal/metrics"
	"swarmhints/internal/sig"
	"swarmhints/internal/task"
)

// Index is the precise per-address accessor map used for conflict detection.
// Swarm filters checks through Bloom signatures and then resolves precisely;
// the Index is the resolution step. Word-granularity, like the undo logs.
//
// The resolution path is filter-first and map-free: every registered access
// populates the task's per-attempt read/write Bloom signature and a counting
// presence filter that is the union of all live signatures, and every query
// consults that filter before probing the precise index — a flat
// open-addressing table — so accesses to quiet addresses (the common case)
// skip the walk entirely. The filter has no false negatives, and a skipped
// walk would have performed zero timestamp comparisons, so the modeled
// comparison counts are bit-identical with and without the pre-filter.
type Index struct {
	tab flat.Table[entry]

	// filt is the counting union of all live task signatures: one Add per
	// OnRead/OnWrite registration, one Remove per Reads/Writes entry on
	// Remove. A negative lookup proves no live signature contains the
	// address, i.e. the precise index holds no entry for it.
	filt sig.Filter

	// memo caches the signature bit positions of the last-hashed address:
	// an access checks the filter, registers, and re-queries the same
	// address several times in a row, and each reuse skips 8 H3 hashes.
	memoAddr uint64
	memoOK   bool
	memoIdx  sig.Indices

	// rec receives per-tile counts of timestamp comparisons performed,
	// which the simulator turns into conflict-check latency (Table II:
	// 5 cycles + 1 cycle per timestamp compared). Query methods take the
	// tile on whose behalf the check runs.
	rec *metrics.Recorder

	// Query epochs: a task with SeenStamp == scanEpoch has already been
	// collected by the current write-check walk; AbortStamp == abortEpoch
	// means membership in the most recent AbortSet closure. Epochs bump
	// before use, so stamp 0 (fresh or recycled task) never matches.
	scanEpoch  uint64
	abortEpoch uint64

	// Reused query result buffers. Each query method overwrites its own
	// buffer on the next call; AbortSet's internal accessor walks use a
	// separate buffer so a caller may abort tasks while iterating a
	// query's result.
	wrScratch   []*task.Task // LaterWriters and ReadCheck results
	accScratch  []*task.Task // LaterAccessors and WriteCheck results
	absScratch  []*task.Task // AbortSet's internal accessor walks
	workScratch []*task.Task
	outScratch  []*task.Task

	// entryPool recycles entries (with their accessor-slice capacity) that
	// Remove deleted once their address went quiet; most addresses cycle
	// between empty and occupied throughout a run.
	entryPool mem.Pool[entry]

	// regSeq is the last RegID handed out; IDs are never reused, so a ref
	// to a recycled descriptor can never come back to life.
	regSeq uint64

	// sigPool recycles the per-attempt signature blocks attached to tasks
	// on their first registered access and reclaimed (cleared) on Remove.
	// Lazy attachment keeps pure-enqueue tasks signature-free.
	sigPool mem.Pool[sig.Attempt]
}

// entry is one address's accessor lists, in registration order. Removal is
// lazy: Remove kills a task's refs by zeroing its RegID and only decrements
// the live counts, and queries step over dead refs, charging one comparison
// per live ref (the live count), so each list reads exactly as if the dead
// refs were gone. A list is compacted (a stable filter: abort order follows
// list order and drives cache and NoC state) when a Remove finds it short or
// mostly dead, and the entry is released once both live counts reach zero.
type entry struct {
	readers []ref
	writers []ref
	nr, nw  int // live refs in readers and writers
}

// ref is one registration: the task and the RegID of the attempt that made
// it. It is live while the task still carries that RegID.
type ref struct {
	t  *task.Task
	id uint64
}

func (r ref) live() bool { return r.t.RegID == r.id }

// compactMax is the list length up to which every Remove compacts; longer
// lists compact once their dead refs outnumber the live ones. Walking dead
// refs touches cold descriptors, so the bound stays low.
const compactMax = 32

// compact drops dead refs, keeping the live ones in order.
func compact(rs []ref) []ref {
	out := rs[:0]
	for _, r := range rs {
		if r.live() {
			out = append(out, r)
		}
	}
	return out
}

// NewIndex returns an empty accessor index publishing comparison counts
// into rec. A nil rec gets a private single-tile recorder (standalone use).
func NewIndex(rec *metrics.Recorder) *Index {
	if rec == nil {
		rec = metrics.New(1)
	}
	return &Index{rec: rec}
}

// comp returns the comparison counter for tile, clamping out-of-range
// indices to tile 0 so a standalone index (private single-tile recorder)
// accepts any tile value its caller's tasks carry.
func (ix *Index) comp(tile int) *uint64 {
	if tile >= ix.rec.Tiles() {
		tile = 0
	}
	return &ix.rec.Tile(tile).Comparisons
}

// Comparisons returns the total timestamp comparisons performed, summed
// over tiles.
func (ix *Index) Comparisons() uint64 { return ix.rec.Aggregate().Comparisons }

// indices returns the signature bit positions for addr through the one-entry
// memo.
func (ix *Index) indices(addr uint64) *sig.Indices {
	if !ix.memoOK || ix.memoAddr != addr {
		ix.memoIdx = sig.IndicesFor(addr)
		ix.memoAddr, ix.memoOK = addr, true
	}
	return &ix.memoIdx
}

func (ix *Index) get(addr uint64) *entry {
	e := ix.tab.Get(addr)
	if e == nil {
		e = ix.entryPool.Get()
		ix.tab.Put(addr, e)
	}
	return e
}

// release returns a drained entry to the pool, keeping its slice capacity
// for the next address that heats up.
func (ix *Index) release(addr uint64, e *entry) {
	e.readers = e.readers[:0]
	e.writers = e.writers[:0]
	ix.tab.Delete(addr)
	ix.entryPool.Put(e)
}

// attach starts the attempt's registrations on its first access: a fresh
// RegID names its refs, and a pooled signature block records its accesses.
// Blocks come back from Remove cleared, so attachment is pointer
// assignment, not a 4 Kbit memset.
func (ix *Index) attach(t *task.Task) *sig.Attempt {
	if t.RegID == 0 {
		ix.regSeq++
		t.RegID = ix.regSeq
	}
	if t.Sigs == nil {
		t.Sigs = ix.sigPool.Get()
	}
	return t.Sigs
}

// OnRead registers a speculative read, stamping the task's read signature
// and the presence filter.
func (ix *Index) OnRead(t *task.Task, addr uint64) {
	idx := ix.indices(addr)
	ix.attach(t).Read.AddIndices(idx)
	ix.filt.Add(idx)
	e := ix.get(addr)
	e.readers = append(e.readers, ref{t, t.RegID})
	e.nr++
}

// OnWrite registers a speculative write, stamping the task's write signature
// and the presence filter.
func (ix *Index) OnWrite(t *task.Task, addr uint64) {
	idx := ix.indices(addr)
	ix.attach(t).Write.AddIndices(idx)
	ix.filt.Add(idx)
	e := ix.get(addr)
	e.writers = append(e.writers, ref{t, t.RegID})
	e.nw++
}

// LaterWriters returns uncommitted writers of addr ordered after o,
// excluding self. A read by a task ordered at o must abort these: the
// reader must not observe data from its logical future. tile is the tile
// performing the check, for comparison attribution. The returned slice is
// scratch, valid until the next LaterWriters or ReadCheck call on this
// Index.
func (ix *Index) LaterWriters(addr uint64, o task.Order, self *task.Task, tile int) []*task.Task {
	ix.wrScratch, _, _ = ix.check(ix.wrScratch[:0], addr, o, self, tile, false)
	return ix.wrScratch
}

// LaterAccessors returns uncommitted tasks ordered after o that read or
// wrote addr, excluding self. A write by a task ordered at o must abort all
// of these (readers observed a stale value; writers' undo chains would
// unwind incorrectly otherwise). tile attributes the comparisons. The
// returned slice is scratch, valid until the next LaterAccessors or
// WriteCheck call on this Index (AbortSet's internal walks use a separate
// buffer, so aborting returned tasks while iterating is safe).
func (ix *Index) LaterAccessors(addr uint64, o task.Order, self *task.Task, tile int) []*task.Task {
	ix.accScratch, _, _ = ix.check(ix.accScratch[:0], addr, o, self, tile, true)
	return ix.accScratch
}

// ReadCheck is a read's conflict check: LaterWriters and, once there are
// none (so the read goes ahead), its producer — the latest-ordered
// uncommitted writer of addr that precedes o, or nil, whose value the read
// observes. The engine uses the producer to model forwarding latency: a
// consumer cannot complete before the producer's execution produced the
// value. The producer comes from the same walk but is charged as its own
// pass over the writers.
func (ix *Index) ReadCheck(addr uint64, o task.Order, self *task.Task, tile int) (later []*task.Task, producer *task.Task) {
	var nw int
	ix.wrScratch, producer, nw = ix.check(ix.wrScratch[:0], addr, o, self, tile, false)
	return ix.withProducer(ix.wrScratch, producer, nw, tile)
}

// WriteCheck is a write's conflict check: LaterAccessors and, once there
// are none, its producer (the earlier write it orders after), as in
// ReadCheck.
func (ix *Index) WriteCheck(addr uint64, o task.Order, self *task.Task, tile int) (later []*task.Task, producer *task.Task) {
	var nw int
	ix.accScratch, producer, nw = ix.check(ix.accScratch[:0], addr, o, self, tile, true)
	return ix.withProducer(ix.accScratch, producer, nw, tile)
}

// withProducer finishes ReadCheck and WriteCheck: a producer is reported,
// and its nw writer comparisons charged, only when nothing must abort.
func (ix *Index) withProducer(later []*task.Task, producer *task.Task, nw, tile int) ([]*task.Task, *task.Task) {
	if len(later) > 0 {
		return later, nil
	}
	*ix.comp(tile) += uint64(nw)
	return nil, producer
}

// check walks addr's accessor lists once for an access by self at order o,
// charging tile one comparison per live ref it checks. It appends to dst the
// uncommitted tasks other than self ordered after o that wrote addr — and,
// for a write, also those that read it, each task once — and returns the
// producer (the latest such writer ordered before o) and the number of live
// writers. Dedup is an epoch stamp on the task, bumped per walk, replacing
// the quadratic membership scan over the result slice; a read's later
// writers are not deduplicated.
func (ix *Index) check(dst []*task.Task, addr uint64, o task.Order, self *task.Task, tile int, write bool) ([]*task.Task, *task.Task, int) {
	if !ix.filt.MayContain(ix.indices(addr)) {
		return dst, nil, 0
	}
	e := ix.tab.Get(addr)
	if e == nil {
		return dst, nil, 0
	}
	comp := ix.comp(tile)
	*comp += uint64(e.nw)
	var ep uint64
	if write {
		*comp += uint64(e.nr)
		ix.scanEpoch++
		ep = ix.scanEpoch
		for _, r := range e.readers {
			if u := r.t; r.live() && u != self && u.State != task.Committed && o.Before(u.Ord()) && u.SeenStamp != ep {
				u.SeenStamp = ep
				dst = append(dst, u)
			}
		}
	}
	var producer *task.Task
	for _, r := range e.writers {
		w := r.t
		if !r.live() || w == self || w.State == task.Committed {
			continue
		}
		if o.Before(w.Ord()) {
			if write {
				if w.SeenStamp == ep {
					continue
				}
				w.SeenStamp = ep
			}
			dst = append(dst, w)
		} else if w.Ord().Before(o) && (producer == nil || producer.Ord().Before(w.Ord())) {
			producer = w
		}
	}
	return dst, producer, e.nw
}

// Remove unregisters a task from every address it touched in its current
// attempt. Call on commit and on abort (before ResetAttempt). Every
// registration's presence-filter count is released, mirroring the OnRead/
// OnWrite that created it. Zeroing RegID kills all of the attempt's refs at
// once; each list then only drops a live count, and is compacted when short
// or mostly dead.
func (ix *Index) Remove(t *task.Task) {
	if t.RegID != 0 {
		t.RegID = 0
		for _, a := range t.Reads {
			ix.unregister(a, false)
		}
		for _, a := range t.Writes {
			ix.unregister(a, true)
		}
	}
	if t.Sigs != nil {
		t.Sigs.Reset()
		ix.sigPool.Put(t.Sigs)
		t.Sigs = nil
	}
}

// unregister releases one dead read or write ref at addr: its filter count
// and its list's live count.
func (ix *Index) unregister(addr uint64, write bool) {
	ix.filt.Remove(ix.indices(addr))
	e := ix.tab.Get(addr)
	if e == nil {
		return
	}
	refs, live := &e.readers, &e.nr
	if write {
		refs, live = &e.writers, &e.nw
	}
	*live--
	if e.nr == 0 && e.nw == 0 {
		ix.release(addr, e)
	} else if n := len(*refs); n <= compactMax || n-*live > *live {
		*refs = compact(*refs)
	}
}

// AbortSet computes the transitive closure of tasks that must abort when
// the seed aborts: all non-committed descendants (children were created by
// a mispeculating execution) and, for every address the aborting tasks
// wrote, every uncommitted later-order reader or writer of that address
// (data-dependent tasks, Sec. II-B: "on an abort, Swarm aborts only
// descendants and data-dependent tasks"). The seed itself is included.
// Membership is an epoch stamp on the task (queried by InLastAbortSet); the
// returned slice is reused scratch, valid only until the next AbortSet call
// on this Index.
func (ix *Index) AbortSet(seed *task.Task) []*task.Task {
	ix.abortEpoch++
	ep := ix.abortEpoch
	seed.AbortStamp = ep
	work := append(ix.workScratch[:0], seed)
	out := ix.outScratch[:0]
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		out = append(out, t)
		for _, c := range t.Children {
			if c.AbortStamp != ep && c.State != task.Committed && c.State != task.Squashed {
				c.AbortStamp = ep
				work = append(work, c)
			}
		}
		// Only tasks that actually executed have speculative writes.
		if t.State == task.Running || t.State == task.Finished {
			for _, a := range t.Writes {
				ix.absScratch, _, _ = ix.check(ix.absScratch[:0], a, t.Ord(), t, t.Tile, true)
				for _, u := range ix.absScratch {
					if u.AbortStamp != ep {
						u.AbortStamp = ep
						work = append(work, u)
					}
				}
			}
		}
	}
	ix.workScratch, ix.outScratch = work[:0], out
	return out
}

// InLastAbortSet reports whether t was in the set computed by the most
// recent AbortSet call. The engine uses it to distinguish squashed
// descendants (parent also aborting) from data-dependent retries without
// rebuilding its own membership map.
func (ix *Index) InLastAbortSet(t *task.Task) bool {
	return ix.abortEpoch != 0 && t.AbortStamp == ix.abortEpoch
}
