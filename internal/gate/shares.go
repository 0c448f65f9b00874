package gate

import (
	"sort"

	"swarmhints/internal/bench"
	"swarmhints/internal/cliutil"
	"swarmhints/internal/exp"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// share is one replica's slice of a sweep grid. It is itself a
// cross-product grid, so it travels as an ordinary /v1/sweep request any
// swarmd accepts, and the replica streams its points in canonical order:
// the order of points, their indices in the full grid. keys holds each
// point's expected record labels (labelKey), in the same order.
type share struct {
	req    api.SweepRequest
	points []int
	keys   []string
}

// partition splits a parsed, deduplicated, canonically ordered grid into at
// most k shares. It cuts the dimension with the most distinct values (ties
// go to benches, then scheds, then cores) into min(values, k) contiguous,
// near-equal chunks; every share keeps the other two dimensions whole. The
// shares are disjoint and together cover the grid.
func partition(points []exp.Point, scale bench.Scale, seed int64, k int) []share {
	var benches []string
	var kinds []swarm.SchedKind
	var cores []int
	seenB, seenK, seenC := map[string]bool{}, map[swarm.SchedKind]bool{}, map[int]bool{}
	for _, p := range points {
		if !seenB[p.Name] {
			seenB[p.Name] = true
			benches = append(benches, p.Name) // already sorted: benches lead the canonical order
		}
		if !seenK[p.Kind] {
			seenK[p.Kind] = true
			kinds = append(kinds, p.Kind)
		}
		if !seenC[p.Cores] {
			seenC[p.Cores] = true
			cores = append(cores, p.Cores)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	sort.Ints(cores)
	scheds := make([]string, len(kinds))
	for i, kd := range kinds {
		scheds[i] = cliutil.SchedFlag(kd)
	}

	// pos maps a point to its value's position along the cut dimension;
	// cut narrows a request to the values [lo, hi) of that dimension.
	var n int
	var pos func(exp.Point) int
	var cut func(r *api.SweepRequest, lo, hi int)
	switch {
	case len(benches) >= len(kinds) && len(benches) >= len(cores):
		n = len(benches)
		pos = func(p exp.Point) int { return sort.SearchStrings(benches, p.Name) }
		cut = func(r *api.SweepRequest, lo, hi int) { r.Benches = benches[lo:hi] }
	case len(kinds) >= len(cores):
		n = len(kinds)
		pos = func(p exp.Point) int {
			return sort.Search(len(kinds), func(i int) bool { return kinds[i] >= p.Kind })
		}
		cut = func(r *api.SweepRequest, lo, hi int) { r.Scheds = scheds[lo:hi] }
	default:
		n = len(cores)
		pos = func(p exp.Point) int { return sort.SearchInts(cores, p.Cores) }
		cut = func(r *api.SweepRequest, lo, hi int) { r.Cores = cores[lo:hi] }
	}
	k = max(1, min(k, n))

	// Value v goes to chunk v*k/n, so chunk j holds the values
	// [ceil(j*n/k), ceil((j+1)*n/k)): never empty, sizes within one.
	shares := make([]share, k)
	for j := range shares {
		shares[j].req = api.SweepRequest{
			Benches: benches, Scheds: scheds, Cores: cores,
			Scale: scale.String(), Seed: &seed, Profile: points[0].Profile, Format: "ndjson",
		}
		cut(&shares[j].req, (j*n+k-1)/k, ((j+1)*n+k-1)/k)
	}
	for i, p := range points {
		s := &shares[pos(p)*k/n]
		s.points = append(s.points, i)
		s.keys = append(s.keys, labelKey(exp.PointLabels(p, scale, seed)))
	}
	return shares
}
