package sig

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndicesStable(t *testing.T) {
	a := IndicesFor(0x1234)
	b := IndicesFor(0x1234)
	if a != b {
		t.Fatal("IndicesFor not deterministic")
	}
	for _, i := range a {
		if i >= Bits {
			t.Fatalf("index %d out of range", i)
		}
	}
}

func TestBloomIndicesPathsAgree(t *testing.T) {
	f := func(addrs []uint64, probe uint64) bool {
		var viaAddr, viaIdx Bloom
		for _, a := range addrs {
			viaAddr.Add(a)
			ix := IndicesFor(a)
			viaIdx.AddIndices(&ix)
		}
		pi := IndicesFor(probe)
		return viaAddr.MayContain(probe) == viaIdx.MayContainIndices(&pi) &&
			viaAddr.Len() == viaIdx.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilterNoFalseNegatives(t *testing.T) {
	f := func(addrs []uint64) bool {
		var flt Filter
		for _, a := range addrs {
			ix := IndicesFor(a)
			flt.Add(&ix)
		}
		for _, a := range addrs {
			ix := IndicesFor(a)
			if !flt.MayContain(&ix) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFilterBalancedChurn drives random interleaved add/remove sequences and
// checks the invariant the conflict index depends on: every address with more
// registrations than removals stays visible.
func TestFilterBalancedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var flt Filter
	live := map[uint64]int{}
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = rng.Uint64() &^ 7
	}
	for step := 0; step < 20_000; step++ {
		a := addrs[rng.Intn(len(addrs))]
		ix := IndicesFor(a)
		if live[a] > 0 && rng.Intn(2) == 0 {
			flt.Remove(&ix)
			live[a]--
		} else {
			flt.Add(&ix)
			live[a]++
		}
		if step%512 == 0 {
			for _, b := range addrs {
				if live[b] > 0 {
					bx := IndicesFor(b)
					if !flt.MayContain(&bx) {
						t.Fatalf("step %d: live address %#x invisible", step, b)
					}
				}
			}
		}
	}
}

func TestFilterSaturatingRemove(t *testing.T) {
	var flt Filter
	ix := IndicesFor(42)
	flt.Remove(&ix) // unbalanced: must not wrap
	if flt.MayContain(&ix) {
		t.Fatal("empty filter claims containment after unbalanced remove")
	}
	flt.Add(&ix)
	if !flt.MayContain(&ix) {
		t.Fatal("add after saturating remove lost the address")
	}
}

func TestFilterReset(t *testing.T) {
	var flt Filter
	ix := IndicesFor(7)
	flt.Add(&ix)
	flt.Reset()
	if flt.MayContain(&ix) {
		t.Fatal("reset did not clear the filter")
	}
}

// TestIndicesForMatchesPerWayH3 checks the fused table against the per-way
// H3 reference: every way's bit position must equal hashes[i].Hash(a) % Bits
// for random addresses, the extremes, and every single-byte value at every
// byte position (each fused-table entry in isolation).
func TestIndicesForMatchesPerWayH3(t *testing.T) {
	check := func(a uint64) {
		t.Helper()
		got := IndicesFor(a)
		for i, h := range hashes {
			if want := uint16(h.Hash(a) % Bits); got[i] != want {
				t.Fatalf("IndicesFor(%#x)[%d] = %d, want %d", a, i, got[i], want)
			}
		}
	}
	check(0)
	check(^uint64(0))
	for j := 0; j < 8; j++ {
		for b := uint64(0); b < 256; b++ {
			check(b << (8 * j))
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100_000; i++ {
		check(rng.Uint64())
	}
}
