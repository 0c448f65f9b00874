package gate

import (
	"reflect"
	"strings"
	"testing"

	"swarmhints/internal/service"
	"swarmhints/swarm/api"
)

// checkShares asserts partition's contract for one accepted grid and k
// replicas: at most k shares, disjoint, together covering every point
// exactly once, and each itself a cross-product grid — a swarmd parsing
// the share's request enumerates exactly the share's points, in stream
// order.
func checkShares(t *testing.T, req api.SweepRequest, k int) []share {
	t.Helper()
	points, scale, seed, aerr := service.ParseSweep(req)
	if aerr != nil {
		t.Fatalf("grid rejected: %v", aerr)
	}
	shares := partition(points, scale, seed, k)
	if len(shares) == 0 || len(shares) > k {
		t.Fatalf("%d shares for %d replicas", len(shares), k)
	}
	covered := make([]int, len(points))
	for si, s := range shares {
		for _, i := range s.points {
			covered[i]++
		}
		got, gscale, gseed, aerr := service.ParseSweep(s.req)
		if aerr != nil {
			t.Fatalf("share %d request rejected: %v (%+v)", si, aerr, s.req)
		}
		if gscale != scale || gseed != seed {
			t.Fatalf("share %d harness %v/%d, want %v/%d", si, gscale, gseed, scale, seed)
		}
		if len(got) != len(s.points) {
			t.Fatalf("share %d request enumerates %d points, share holds %d", si, len(got), len(s.points))
		}
		for j, i := range s.points {
			if got[j] != points[i] {
				t.Fatalf("share %d point %d = %+v, want %+v", si, j, got[j], points[i])
			}
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("point %d (%s) covered by %d shares, want 1", i, points[i].Key(), c)
		}
	}
	return shares
}

// TestPartitionShares: partition's contract over grids whose widest
// dimension is each of benches, scheds and cores, with duplicates and
// ties, for fleets of 1 to 4 replicas; plus the fig2 split the gateway
// actually sends a 2-replica fleet.
func TestPartitionShares(t *testing.T) {
	grids := []api.SweepRequest{
		{Benches: []string{"des"}, Scheds: []string{"hints"}, Cores: []int{1}, Scale: "tiny"},
		{Benches: []string{"des"}, Scheds: []string{"random", "stealing", "hints", "lbhints"}, Cores: []int{1, 4}, Scale: "tiny"},
		{Benches: []string{"sssp", "des", "bfs", "sssp"}, Scheds: []string{"hints"}, Cores: []int{4, 1}},
		{Benches: []string{"des", "sssp"}, Scheds: []string{"hints", "random", "lbhints"}, Cores: []int{16, 1, 4, 4}, Profile: true},
		{Benches: []string{"des"}, Scheds: []string{"lbidle", "random"}, Cores: []int{64, 16, 4, 1, 16}},
	}
	for _, req := range grids {
		for k := 1; k <= 4; k++ {
			checkShares(t, req, k)
		}
	}

	shares := checkShares(t, grids[1], 2)
	want := [][]string{{"random", "stealing"}, {"hints", "lbhints"}}
	for i, s := range shares {
		if !reflect.DeepEqual(s.req.Scheds, want[i]) || !reflect.DeepEqual(s.req.Cores, []int{1, 4}) {
			t.Errorf("fig2 share %d = %v x %v, want %v x [1 4]", i, s.req.Scheds, s.req.Cores, want[i])
		}
	}
}

// FuzzSweepShares: for any grid ParseSweep accepts and a fleet of 1-4
// replicas, the shares cover every point exactly once and each is a
// cross-product grid a swarmd accepts.
func FuzzSweepShares(f *testing.F) {
	f.Add("des", "random,stealing,hints,lbhints", []byte{1, 4}, false, uint8(1))
	f.Add("des,sssp", "hints,random,lbhints", []byte{16, 1, 4, 4}, true, uint8(2))
	f.Add("bfs,des,sssp,bfs", "lbidle", []byte{1, 64}, false, uint8(3))
	f.Fuzz(func(t *testing.T, benches, scheds string, cores []byte, profile bool, replicas uint8) {
		req := api.SweepRequest{
			Benches: strings.Split(benches, ","), Scheds: strings.Split(scheds, ","),
			Scale: "tiny", Profile: profile,
		}
		for _, c := range cores {
			req.Cores = append(req.Cores, int(c))
		}
		if _, _, _, aerr := service.ParseSweep(req); aerr != nil {
			return
		}
		checkShares(t, req, 1+int(replicas%4))
	})
}
