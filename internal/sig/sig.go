// Package sig implements Swarm's conflict-detection signatures: the per-task
// 2 Kbit, 8-way H3-hashed Bloom read/write signatures of Table II (as in
// LogTM-SE), plus the counting presence filter the simulator's conflict index
// uses as its address pre-filter — a counting superposition of every live
// task signature, so a negative lookup proves that no task's signature can
// contain the address.
//
// It lives in its own leaf package (below both task and conflict) so task
// descriptors can embed signatures without an import cycle. All three types
// share one set of hash functions through Indices, letting a call site hash
// an address once and reuse the bit positions across the per-task signature,
// the presence filter, and any membership query.
package sig

import "swarmhints/internal/hashutil"

// Bits and Ways mirror Table II: 2 Kbit signatures, 8 hash ways.
const (
	Bits = 2048
	Ways = 8
)

// hashes are the shared H3 functions, seeded exactly as the original
// conflict-package Bloom so signature contents are unchanged by the move.
// IndicesFor reads them through the fused table below; they stay the
// reference definition its tests check against.
var hashes = func() [Ways]*hashutil.H3 {
	var hs [Ways]*hashutil.H3
	for i := range hs {
		hs[i] = hashutil.NewH3(uint64(0xb100 + i))
	}
	return hs
}()

// fused[j][b] holds, for every way w, the low 11 bits of hashes[w]'s
// contribution from byte value b at byte position j, packed 16 bits per way:
// ways 0-3 in word 0, ways 4-7 in word 1. H3 is XOR-linear over the input
// bytes and Bits is a power of two, so % Bits distributes over the XOR and
// folding the eight per-byte entries yields every way's bit position at
// once: 8 lookups into one 32 KB table instead of 64 spread over eight.
var fused = func() *[8][256][2]uint64 {
	var f [8][256][2]uint64
	for j := range f {
		for b := range f[j] {
			x := uint64(b) << (8 * j)
			for w, h := range hashes {
				f[j][b][w/4] |= (h.Hash(x) % Bits) << (16 * (w % 4))
			}
		}
	}
	return &f
}()

// Indices are the Ways bit positions an address maps to. Computing them once
// per access and passing them by pointer keeps the hash work off the paths
// that touch several signature structures for the same address.
type Indices [Ways]uint16

// IndicesFor hashes addr into its signature bit positions: for every way i,
// hashes[i].Hash(addr) % Bits.
func IndicesFor(addr uint64) Indices {
	f := fused
	e0 := &f[0][byte(addr)]
	e1 := &f[1][byte(addr>>8)]
	e2 := &f[2][byte(addr>>16)]
	e3 := &f[3][byte(addr>>24)]
	e4 := &f[4][byte(addr>>32)]
	e5 := &f[5][byte(addr>>40)]
	e6 := &f[6][byte(addr>>48)]
	e7 := &f[7][byte(addr>>56)]
	lo := e0[0] ^ e1[0] ^ e2[0] ^ e3[0] ^ e4[0] ^ e5[0] ^ e6[0] ^ e7[0]
	hi := e0[1] ^ e1[1] ^ e2[1] ^ e3[1] ^ e4[1] ^ e5[1] ^ e6[1] ^ e7[1]
	return Indices{
		uint16(lo), uint16(lo >> 16), uint16(lo >> 32), uint16(lo >> 48),
		uint16(hi), uint16(hi >> 16), uint16(hi >> 32), uint16(hi >> 48),
	}
}

// Bloom is a fixed-size Bloom filter over word addresses, modelling the
// read- or write-set signature a Swarm tile keeps per speculative task.
type Bloom struct {
	bits [Bits / 64]uint64
	n    int
}

// Add inserts a word address.
func (b *Bloom) Add(addr uint64) {
	ix := IndicesFor(addr)
	b.AddIndices(&ix)
}

// AddIndices inserts an address by its precomputed bit positions.
func (b *Bloom) AddIndices(ix *Indices) {
	for _, i := range ix {
		b.bits[i>>6] |= 1 << (i & 63)
	}
	b.n++
}

// MayContain reports whether addr may be in the set (no false negatives).
func (b *Bloom) MayContain(addr uint64) bool {
	ix := IndicesFor(addr)
	return b.MayContainIndices(&ix)
}

// MayContainIndices is MayContain with precomputed bit positions.
func (b *Bloom) MayContainIndices(ix *Indices) bool {
	for _, i := range ix {
		if b.bits[i>>6]&(1<<(i&63)) == 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether the two filters may share an element.
func (b *Bloom) Intersects(o *Bloom) bool {
	for i := range b.bits {
		if b.bits[i]&o.bits[i] != 0 {
			return true
		}
	}
	return false
}

// Len returns the number of inserted addresses.
func (b *Bloom) Len() int { return b.n }

// Reset clears the filter for task re-execution.
func (b *Bloom) Reset() { *b = Bloom{} }

// Attempt bundles the read and write signatures of one task attempt. Task
// descriptors hold it by pointer and the conflict index attaches one lazily
// on a task's first registered access (recycling them through a pool): most
// tasks in enqueue-heavy phases never touch shared memory, and keeping the
// 2×2 Kbit block out of the descriptor keeps task allocation and GC scanning
// cheap.
type Attempt struct {
	Read  Bloom
	Write Bloom
}

// Reset clears both signatures.
func (a *Attempt) Reset() {
	a.Read.Reset()
	a.Write.Reset()
}

// Filter is a counting Bloom filter with the same geometry as Bloom. The
// conflict index keeps one as the union of all live task signatures:
// Add/Remove mirror each signature registration, and a negative MayContain
// proves no live signature can contain the address, so the precise accessor
// walk can be skipped without ever missing a conflict.
//
// Remove saturates at zero rather than wrapping, so an unbalanced remove can
// only leave counters too high (extra false positives), never introduce a
// false negative.
type Filter struct {
	n [Bits]uint32
}

// Add registers one signature insertion.
func (f *Filter) Add(ix *Indices) {
	for _, i := range ix {
		f.n[i]++
	}
}

// Remove unregisters one signature insertion.
func (f *Filter) Remove(ix *Indices) {
	for _, i := range ix {
		if f.n[i] > 0 {
			f.n[i]--
		}
	}
}

// MayContain reports whether any registered address may map to ix (no false
// negatives with balanced Add/Remove pairs).
func (f *Filter) MayContain(ix *Indices) bool {
	for _, i := range ix {
		if f.n[i] == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter.
func (f *Filter) Reset() { *f = Filter{} }
