package gate

import (
	"strings"
	"testing"
	"time"
)

func picks(b Balancer, candidates []int, n int) map[int]int {
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		p := b.Pick(candidates)
		counts[p]++
		b.Observe(p, time.Millisecond, OutcomeSuccess)
	}
	return counts
}

func TestNewBalancerNames(t *testing.T) {
	for _, name := range []string{"", BalancerAdaptive, BalancerP2C, BalancerRoundRobin} {
		if _, err := NewBalancer(name, 3, 1); err != nil {
			t.Errorf("NewBalancer(%q): %v", name, err)
		}
	}
	_, err := NewBalancer("magic", 3, 1)
	if err == nil {
		t.Fatal("unknown balancer accepted")
	}
	for _, want := range []string{BalancerAdaptive, BalancerP2C, BalancerRoundRobin} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

// TestAdaptiveDecaysOnFailureAndRecovers is the pheromone contract: errors
// collapse a replica's score multiplicatively (floored, never to zero), a
// degraded replica loses almost all traffic, and subsequent successes let
// it re-earn its share.
func TestAdaptiveDecaysOnFailureAndRecovers(t *testing.T) {
	a := newAdaptive(2, 1)
	// Replica 1 fails repeatedly: score collapses to the floor.
	for i := 0; i < 10; i++ {
		a.Observe(1, time.Millisecond, OutcomeFailure)
	}
	s := a.Scores()
	if s[1] != scoreMin {
		t.Fatalf("failed replica score = %v, want floor %v", s[1], scoreMin)
	}
	if s[0] != scoreInit {
		t.Fatalf("healthy replica score moved: %v", s[0])
	}
	// Routing now heavily favors replica 0...
	counts := make(map[int]int)
	for i := 0; i < 1000; i++ {
		counts[a.Pick([]int{0, 1})]++
	}
	if counts[1] > 150 {
		t.Fatalf("degraded replica still drew %d/1000 picks", counts[1])
	}
	if counts[1] == 0 {
		t.Fatal("floor failed: degraded replica fully starved, cannot prove recovery")
	}
	// ...but equal-speed successes on replica 1 restore its score.
	for i := 0; i < 5; i++ {
		a.Observe(0, time.Millisecond, OutcomeSuccess)
	}
	for i := 0; i < 50; i++ {
		a.Observe(1, time.Millisecond, OutcomeSuccess)
	}
	if s := a.Scores(); s[1] < 0.9 {
		t.Fatalf("recovered replica score = %v, want ~1", s[1])
	}
}

// TestAdaptiveFavorsFasterReplica: with one replica consistently 4x
// faster, reinforcement should tilt traffic toward it.
func TestAdaptiveFavorsFasterReplica(t *testing.T) {
	a := newAdaptive(2, 1)
	for i := 0; i < 50; i++ {
		a.Observe(0, time.Millisecond, OutcomeSuccess)
		a.Observe(1, 4*time.Millisecond, OutcomeSuccess)
	}
	s := a.Scores()
	if s[0] <= s[1] {
		t.Fatalf("scores fast=%v slow=%v, want fast > slow", s[0], s[1])
	}
	counts := make(map[int]int)
	for i := 0; i < 1000; i++ {
		counts[a.Pick([]int{0, 1})]++
	}
	if counts[0] <= counts[1] {
		t.Fatalf("picks fast=%d slow=%d, want majority on the fast replica", counts[0], counts[1])
	}
}

func TestAdaptiveScoreBounds(t *testing.T) {
	a := newAdaptive(1, 1)
	// A replica absurdly faster than the reference must cap, not diverge.
	a.Observe(0, time.Second, OutcomeSuccess) // sets the reference high
	for i := 0; i < 200; i++ {
		a.Observe(0, time.Nanosecond, OutcomeSuccess)
	}
	if s := a.Scores()[0]; s > scoreMax {
		t.Fatalf("score %v exceeds cap %v", s, scoreMax)
	}
}

// TestP2CPrefersLessLoaded: with replica 0 carrying outstanding work, p2c
// must route new picks to the idle replica.
func TestP2CPrefersLessLoaded(t *testing.T) {
	p := newP2C(2, 1)
	// Load replica 0 with 5 outstanding attempts (no Observe yet).
	for i := 0; i < 5; i++ {
		p.out[0]++
	}
	counts := make(map[int]int)
	for i := 0; i < 100; i++ {
		pick := p.Pick([]int{0, 1})
		counts[pick]++
		p.Observe(pick, time.Millisecond, OutcomeSuccess) // return the slot
	}
	if counts[1] < 90 {
		t.Fatalf("picks under load: %v, want nearly all on the idle replica", counts)
	}
}

// TestP2CProgressKeepsSlot: a streamed share reports its records with
// OutcomeProgress, which feeds the latency signal but must not return the
// slot — only the share's final Observe does.
func TestP2CProgressKeepsSlot(t *testing.T) {
	p := newP2C(2, 1)
	i := p.Pick([]int{0})
	for k := 0; k < 3; k++ {
		p.Observe(i, time.Millisecond, OutcomeProgress)
	}
	if p.out[i] != 1 || p.lat[i] == 0 {
		t.Fatalf("after progress: out %d lat %v, want 1 and a latency sample", p.out[i], p.lat[i])
	}
	p.Observe(i, time.Millisecond, OutcomeSuccess)
	if p.out[i] != 0 {
		t.Fatalf("after the final observe: out %d, want 0", p.out[i])
	}
}

func TestP2CSingleCandidate(t *testing.T) {
	p := newP2C(3, 1)
	if got := p.Pick([]int{2}); got != 2 {
		t.Fatalf("pick from singleton = %d, want 2", got)
	}
	p.Observe(2, time.Millisecond, OutcomeSuccess)
}

func TestRoundRobinCycles(t *testing.T) {
	r := newRoundRobin()
	cands := []int{0, 1, 2}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, r.Pick(cands))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin sequence %v, want %v", got, want)
		}
	}
	// A shrunken candidate set (replica drained) still cycles cleanly.
	for i := 0; i < 4; i++ {
		if p := r.Pick([]int{0, 2}); p != 0 && p != 2 {
			t.Fatalf("pick %d outside candidate set", p)
		}
	}
}

// TestBalancersCoverAllReplicas: every balancer eventually uses every
// healthy replica — nobody is silently starved on a uniform fleet.
func TestBalancersCoverAllReplicas(t *testing.T) {
	for _, name := range []string{BalancerAdaptive, BalancerP2C, BalancerRoundRobin} {
		b, err := NewBalancer(name, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		counts := picks(b, []int{0, 1, 2}, 300)
		for i := 0; i < 3; i++ {
			if counts[i] == 0 {
				t.Errorf("%s: replica %d never picked: %v", name, i, counts)
			}
		}
	}
}
