package service

import (
	"reflect"
	"strings"
	"testing"

	"swarmhints/internal/cliutil"
	"swarmhints/swarm/api"
)

// FuzzParseRun: ParseRun never panics, and a request it accepts, re-issued
// in canonical form (resolved scale and seed, parseable scheduler name),
// parses to the same configuration.
func FuzzParseRun(f *testing.F) {
	f.Add("des", "hints", 4, "tiny", int64(7), true, 0, false)
	f.Add("sssp", "LBIDLE", 64, "", int64(-1), false, 8, true)
	f.Add("kmeans", "random", 3, "huge", int64(0), true, -1, false)
	f.Fuzz(func(t *testing.T, bench, sched string, cores int, scale string, seed int64, hasSeed bool, seeds int, profile bool) {
		req := api.RunRequest{Bench: bench, Sched: sched, Cores: cores, Scale: scale, Seeds: seeds, Profile: profile}
		if hasSeed {
			req.Seed = &seed
		}
		cfg, aerr := ParseRun(req)
		if aerr != nil {
			return
		}
		again, aerr := ParseRun(api.RunRequest{
			Bench: cfg.Point.Name, Sched: cliutil.SchedFlag(cfg.Point.Kind), Cores: cfg.Point.Cores,
			Scale: cfg.Scale.String(), Seed: &cfg.Seed, Seeds: seeds, Profile: cfg.Point.Profile,
		})
		if aerr != nil {
			t.Fatalf("canonical form of accepted %+v rejected: %v", req, aerr)
		}
		if again != cfg {
			t.Fatalf("round trip %+v -> %+v, want %+v", req, again, cfg)
		}
	})
}

// FuzzParseSweep: ParseSweep never panics, and the points of a grid it
// accepts round-trip: the grid of their distinct values, in canonical
// spelling, parses to exactly the same points, and each point re-issued as
// a run request parses to itself.
func FuzzParseSweep(f *testing.F) {
	f.Add("des", "random,stealing,hints,lbhints", []byte{1, 4}, "tiny", int64(7), false)
	f.Add("sssp,des,sssp", "Hints,lbidle", []byte{16, 4, 16}, "", int64(3), true)
	f.Add("nope", "hints", []byte{5}, "small", int64(0), false)
	f.Fuzz(func(t *testing.T, benches, scheds string, cores []byte, scale string, seed int64, profile bool) {
		req := api.SweepRequest{
			Benches: strings.Split(benches, ","), Scheds: strings.Split(scheds, ","),
			Scale: scale, Seed: &seed, Profile: profile,
		}
		for _, c := range cores {
			req.Cores = append(req.Cores, int(c))
		}
		points, gscale, gseed, aerr := ParseSweep(req)
		if aerr != nil {
			return
		}
		canon := api.SweepRequest{Scale: gscale.String(), Seed: &gseed, Profile: profile}
		seenB, seenS, seenC := map[string]bool{}, map[string]bool{}, map[int]bool{}
		for _, p := range points {
			sched := cliutil.SchedFlag(p.Kind)
			if !seenB[p.Name] {
				seenB[p.Name] = true
				canon.Benches = append(canon.Benches, p.Name)
			}
			if !seenS[sched] {
				seenS[sched] = true
				canon.Scheds = append(canon.Scheds, sched)
			}
			if !seenC[p.Cores] {
				seenC[p.Cores] = true
				canon.Cores = append(canon.Cores, p.Cores)
			}
			cfg, aerr := ParseRun(api.RunRequest{
				Bench: p.Name, Sched: sched, Cores: p.Cores,
				Scale: gscale.String(), Seed: &gseed, Profile: p.Profile,
			})
			if aerr != nil || cfg.Point != p {
				t.Fatalf("point %s of an accepted grid does not parse to itself: %+v %v", p.Key(), cfg.Point, aerr)
			}
		}
		again, _, _, aerr := ParseSweep(canon)
		if aerr != nil {
			t.Fatalf("canonical grid %+v rejected: %v", canon, aerr)
		}
		if !reflect.DeepEqual(again, points) {
			t.Fatalf("round trip of %+v: %d points, want %d", req, len(again), len(points))
		}
	})
}
