package conflict

import (
	"math/rand"
	"testing"

	"swarmhints/internal/sig"
	"swarmhints/internal/task"
)

// refIndex is a plain-map reference model of the precise accessor index,
// used to check the flat-table + pre-filter implementation over randomized
// access traces.
type refIndex struct {
	readers map[uint64][]*task.Task
	writers map[uint64][]*task.Task
}

func newRefIndex() *refIndex {
	return &refIndex{readers: map[uint64][]*task.Task{}, writers: map[uint64][]*task.Task{}}
}

func (r *refIndex) laterWriters(addr uint64, o task.Order, self *task.Task) []*task.Task {
	var out []*task.Task
	for _, w := range r.writers[addr] {
		if w != self && w.State != task.Committed && o.Before(w.Ord()) {
			out = append(out, w)
		}
	}
	return out
}

func (r *refIndex) laterAccessors(addr uint64, o task.Order, self *task.Task) []*task.Task {
	var out []*task.Task
	seen := map[*task.Task]bool{}
	for _, lst := range [][]*task.Task{r.readers[addr], r.writers[addr]} {
		for _, t := range lst {
			if t != self && t.State != task.Committed && o.Before(t.Ord()) && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

func (r *refIndex) remove(t *task.Task) {
	drop := func(m map[uint64][]*task.Task, addrs []uint64) {
		for _, a := range addrs {
			lst := m[a][:0]
			for _, x := range m[a] {
				if x != t {
					lst = append(lst, x)
				}
			}
			if len(lst) == 0 {
				delete(m, a)
			} else {
				m[a] = lst
			}
		}
	}
	drop(r.readers, t.Reads)
	drop(r.writers, t.Writes)
}

func sameTasks(a, b []*task.Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrefilterDifferentialTrace drives a randomized access trace (reads,
// writes, removes, commits, re-registrations) through the Index and a
// plain-map reference in lockstep. It asserts three things on every step:
// query results are element-for-element identical (same tasks, same order),
// the presence filter never reports a false negative for an address with a
// live registration, and signature membership covers every registered access.
func TestPrefilterDifferentialTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ix := NewIndex(nil)
	ref := newRefIndex()

	const nTasks = 40
	const nAddrs = 24
	tasks := make([]*task.Task, nTasks)
	for i := range tasks {
		tasks[i] = mk(uint64(i+1), uint64((i*7)%13)*10)
	}
	addrs := make([]uint64, nAddrs)
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i)*8
	}
	live := map[*task.Task]bool{}

	for step := 0; step < 30_000; step++ {
		tk := tasks[rng.Intn(nTasks)]
		a := addrs[rng.Intn(nAddrs)]
		switch rng.Intn(6) {
		case 0: // read
			if tk.State == task.Running {
				ix.OnRead(tk, a)
				tk.Reads = append(tk.Reads, a)
				ref.readers[a] = append(ref.readers[a], tk)
				live[tk] = true
			}
		case 1: // write
			if tk.State == task.Running {
				ix.OnWrite(tk, a)
				tk.Writes = append(tk.Writes, a)
				ref.writers[a] = append(ref.writers[a], tk)
				live[tk] = true
			}
		case 2: // query later writers
			q := tasks[rng.Intn(nTasks)]
			got := ix.LaterWriters(a, q.Ord(), q, 0)
			want := ref.laterWriters(a, q.Ord(), q)
			if !sameTasks(got, want) {
				t.Fatalf("step %d: LaterWriters(%#x) = %v, want %v", step, a, got, want)
			}
		case 3: // query later accessors
			q := tasks[rng.Intn(nTasks)]
			got := ix.LaterAccessors(a, q.Ord(), q, 0)
			want := ref.laterAccessors(a, q.Ord(), q)
			if !sameTasks(got, want) {
				t.Fatalf("step %d: LaterAccessors(%#x) = %v, want %v", step, a, got, want)
			}
		case 4: // abort-style remove + reset
			ix.Remove(tk)
			ref.remove(tk)
			tk.ResetAttempt()
			delete(live, tk)
		case 5: // commit, then resurrect as a fresh attempt
			if rng.Intn(4) == 0 {
				ix.Remove(tk)
				ref.remove(tk)
				tk.ResetAttempt()
				tk.State = task.Committed
				delete(live, tk)
			} else if tk.State == task.Committed {
				tk.State = task.Running
			}
		}

		if step%256 == 0 {
			// Zero false negatives: every live registration's address must
			// pass the presence filter and the task's own signature.
			for lt := range live {
				for _, ra := range lt.Reads {
					rix := sig.IndicesFor(ra)
					if !ix.filt.MayContain(&rix) {
						t.Fatalf("step %d: filter false negative for read %#x", step, ra)
					}
					if !lt.Sigs.Read.MayContain(ra) {
						t.Fatalf("step %d: read signature missing %#x", step, ra)
					}
				}
				for _, wa := range lt.Writes {
					wix := sig.IndicesFor(wa)
					if !ix.filt.MayContain(&wix) {
						t.Fatalf("step %d: filter false negative for write %#x", step, wa)
					}
					if !lt.Sigs.Write.MayContain(wa) {
						t.Fatalf("step %d: write signature missing %#x", step, wa)
					}
				}
			}
			// The flat table and the reference must hold the same address set.
			present := map[uint64]bool{}
			ix.tab.Range(func(k uint64, e *entry) bool {
				present[k] = true
				if len(e.readers) == 0 && len(e.writers) == 0 {
					t.Fatalf("step %d: empty entry retained for %#x", step, k)
				}
				return true
			})
			for a := range ref.readers {
				if !present[a] {
					t.Fatalf("step %d: reference reader address %#x missing from table", step, a)
				}
			}
			for a := range ref.writers {
				if !present[a] {
					t.Fatalf("step %d: reference writer address %#x missing from table", step, a)
				}
			}
		}
	}
}

// TestQueryScratchSurvivesAbortWalk pins the buffer contract the engine
// relies on: a LaterAccessors result must stay intact while AbortSet (which
// walks accessors internally) runs on tasks drawn from it.
func TestQueryScratchSurvivesAbortWalk(t *testing.T) {
	ix := NewIndex(nil)
	early := mk(1, 10)
	a, b := mk(2, 20), mk(3, 30)
	for _, tk := range []*task.Task{a, b} {
		ix.OnWrite(tk, 0x40)
		tk.Writes = append(tk.Writes, 0x40)
		ix.OnWrite(tk, 0x48+tk.ID*8)
		tk.Writes = append(tk.Writes, 0x48+tk.ID*8)
	}
	got := ix.LaterAccessors(0x40, early.Ord(), early, 0)
	if len(got) != 2 {
		t.Fatalf("want 2 accessors, got %d", len(got))
	}
	ix.AbortSet(got[0]) // uses the internal walk buffer, not ours
	if got[0] != a || got[1] != b {
		t.Fatal("AbortSet clobbered the LaterAccessors result buffer")
	}
}

// TestSignatureAttemptLifecycle checks the signature lifecycle: a block is
// attached on the first access, populated per access, and reclaimed cleared
// when the task leaves the index; ResetAttempt clears any block still
// attached.
func TestSignatureAttemptLifecycle(t *testing.T) {
	ix := NewIndex(nil)
	tk := mk(1, 10)
	if tk.Sigs != nil {
		t.Fatal("fresh task carries a signature block")
	}
	ix.OnRead(tk, 0x100)
	tk.Reads = append(tk.Reads, 0x100)
	ix.OnWrite(tk, 0x108)
	tk.Writes = append(tk.Writes, 0x108)
	if tk.Sigs == nil || !tk.Sigs.Read.MayContain(0x100) || !tk.Sigs.Write.MayContain(0x108) {
		t.Fatal("signatures not populated by OnRead/OnWrite")
	}
	ix.Remove(tk)
	if tk.Sigs != nil {
		t.Fatal("Remove did not reclaim the signature block")
	}

	// A task reset outside the index (no Remove) clears in place.
	tk2 := mk(2, 20)
	ix.OnRead(tk2, 0x200)
	tk2.Reads = append(tk2.Reads, 0x200)
	tk2.ResetAttempt()
	if tk2.Sigs == nil || tk2.Sigs.Read.Len() != 0 || tk2.Sigs.Write.Len() != 0 {
		t.Fatal("ResetAttempt did not clear an attached signature block")
	}
}

func (r *refIndex) latestEarlierWriter(addr uint64, o task.Order, self *task.Task) *task.Task {
	var best *task.Task
	for _, w := range r.writers[addr] {
		if w != self && w.State != task.Committed && w.Ord().Before(o) {
			if best == nil || best.Ord().Before(w.Ord()) {
				best = w
			}
		}
	}
	return best
}

// checkAccessorLists asserts the lazy-deletion invariants of every entry:
// the live counts equal the live refs in each list, no list holds more dead
// refs than live ones (Remove compacts it before that), and an entry with no
// live ref is released. It returns the longest list seen and whether any
// list over compactMax still holds a dead ref.
func checkAccessorLists(t *testing.T, step int, ix *Index) (longest int, deadInLong bool) {
	t.Helper()
	ix.tab.Range(func(a uint64, e *entry) bool {
		for _, l := range []struct {
			refs []ref
			live int
		}{{e.readers, e.nr}, {e.writers, e.nw}} {
			n := 0
			for _, r := range l.refs {
				if r.live() {
					n++
				}
			}
			if n != l.live {
				t.Fatalf("step %d: %#x: live count %d, %d live refs", step, a, l.live, n)
			}
			if dead := len(l.refs) - n; dead > n {
				t.Fatalf("step %d: %#x: %d dead refs outnumber %d live", step, a, dead, n)
			} else if dead > 0 && len(l.refs) > compactMax {
				deadInLong = true
			}
			longest = max(longest, len(l.refs))
		}
		if e.nr == 0 && e.nw == 0 {
			t.Fatalf("step %d: %#x: entry with no live ref retained", step, a)
		}
		return true
	})
	return longest, deadInLong
}

// TestAccessorListDifferential drives the lazily deleted accessor lists
// against the eager reference model. A hot phase piles hundreds of tasks
// onto a few addresses, so lists grow past compactMax and Removes leave dead
// refs in place until they outnumber the live ones; a wide phase then
// spreads the same traffic over many addresses. Committed descriptors go
// back through a task.Pool and are reused at once, so a stale ref to a
// recycled descriptor must stay dead. Every query — LaterWriters,
// LaterAccessors, and the engine's ReadCheck and WriteCheck with their
// producers — must match the reference element for element and charge
// exactly one comparison per live accessor it checks.
func TestAccessorListDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ix := NewIndex(nil)
	ref := newRefIndex()
	var pool task.Pool
	var active []*task.Task
	var nextID uint64
	seen := map[*task.Task]bool{}
	recycled := false
	spawn := func() {
		nextID++
		tk := pool.Get(nextID, 0, uint64(rng.Intn(1000)), task.HintNone, 0, nil, nil)
		tk.State = task.Running
		recycled = recycled || seen[tk]
		seen[tk] = true
		active = append(active, tk)
	}
	unregister := func(tk *task.Task) {
		ix.Remove(tk)
		ref.remove(tk)
		tk.ResetAttempt()
	}

	const steps = 60_000
	var longest int
	var deadInLong bool
	for step := 0; step < steps; step++ {
		hot := step < steps/2
		nAddrs, maxActive := 48, 64
		if hot {
			nAddrs, maxActive = 3, 400
		}
		a := 0x4000 + uint64(rng.Intn(nAddrs))*8
		if len(active) < maxActive && rng.Intn(8) == 0 || len(active) == 0 {
			spawn()
			continue
		}
		i := rng.Intn(len(active))
		tk := active[i]
		switch op := rng.Intn(20); {
		case op < 6: // read
			ix.OnRead(tk, a)
			tk.Reads = append(tk.Reads, a)
			ref.readers[a] = append(ref.readers[a], tk)
		case op < 9: // write
			ix.OnWrite(tk, a)
			tk.Writes = append(tk.Writes, a)
			ref.writers[a] = append(ref.writers[a], tk)
		case op < 15: // queries, as tk or as an outside order
			self, o := tk, tk.Ord()
			if op%2 == 0 {
				self, o = nil, task.Order{TS: uint64(rng.Intn(1000)), ID: rng.Uint64()}
			}
			wantW := ref.laterWriters(a, o, self)
			wantA := ref.laterAccessors(a, o, self)
			nr, nw := uint64(len(ref.readers[a])), uint64(len(ref.writers[a]))
			before := ix.Comparisons()
			gotW := append([]*task.Task(nil), ix.LaterWriters(a, o, self, 0)...)
			gotA := append([]*task.Task(nil), ix.LaterAccessors(a, o, self, 0)...)
			rdW, rdP := ix.ReadCheck(a, o, self, 0)
			rdW = append([]*task.Task(nil), rdW...)
			wrA, wrP := ix.WriteCheck(a, o, self, 0)
			want := nw + (nr + nw) + nw + (nr + nw)
			if !sameTasks(gotW, wantW) || !sameTasks(rdW, wantW) {
				t.Fatalf("step %d: LaterWriters(%#x) = %v, ReadCheck = %v, want %v", step, a, gotW, rdW, wantW)
			}
			if !sameTasks(gotA, wantA) || !sameTasks(wrA, wantA) {
				t.Fatalf("step %d: LaterAccessors(%#x) = %v, WriteCheck = %v, want %v", step, a, gotA, wrA, wantA)
			}
			// The producer is reported, and its writer pass charged, only
			// when nothing must abort.
			wantRdP, wantWrP := ref.latestEarlierWriter(a, o, self), ref.latestEarlierWriter(a, o, self)
			if len(wantW) > 0 {
				wantRdP = nil
			} else {
				want += nw
			}
			if len(wantA) > 0 {
				wantWrP = nil
			} else {
				want += nw
			}
			if rdP != wantRdP || wrP != wantWrP {
				t.Fatalf("step %d: producers of %#x: read %p, write %p, want %p, %p", step, a, rdP, wrP, wantRdP, wantWrP)
			}
			if got := ix.Comparisons() - before; got != want {
				t.Fatalf("step %d: %#x: %d comparisons, want %d", step, a, got, want)
			}
		case op < 18: // abort: drop the attempt, re-register later
			unregister(tk)
		default: // commit and recycle the descriptor
			unregister(tk)
			tk.State = task.Committed
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			pool.Put(tk)
			spawn()
		}
		if step%64 == 0 || step == steps-1 {
			l, d := checkAccessorLists(t, step, ix)
			longest, deadInLong = max(longest, l), deadInLong || d
		}
	}
	if longest <= compactMax || !deadInLong || !recycled {
		t.Fatalf("trace missed a path: longest list %d (compactMax %d), dead refs in a long list %v, descriptor reuse %v",
			longest, compactMax, deadInLong, recycled)
	}
}
