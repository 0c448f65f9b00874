package gate

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Outcome classifies one attempt for the balancer's learning signal.
type Outcome int

// Outcomes. OutcomeCanceled is an attempt abandoned by the caller (the
// request context died mid-attempt): it releases the attempt's slot in
// load-tracking balancers but must not move any score — a client
// disconnect says nothing about the replica's health or speed.
// OutcomeProgress is a success that does not end the attempt: a streamed
// sweep share reports every record but its last with it, so the latency
// signal stays "time to the next point" while the share keeps its slot.
const (
	OutcomeSuccess Outcome = iota
	OutcomeFailure
	OutcomeCanceled
	OutcomeProgress
)

// Balancer decides which replica serves the next point and learns from
// every attempt's outcome. Implementations are safe for concurrent use;
// every Pick is followed by exactly one final Observe for the attempt it
// chose (whatever its outcome), which is what lets load-tracking balancers
// keep an outstanding count. OutcomeProgress observations may precede the
// final one and are not final.
type Balancer interface {
	// Pick chooses one replica index among candidates (never empty).
	Pick(candidates []int) int
	// Observe reports the outcome of one attempt on replica i and its
	// latency.
	Observe(i int, latency time.Duration, o Outcome)
	// Scores snapshots the per-replica desirability signal (higher is
	// better), for the swarmgate_replica_score gauge.
	Scores() []float64
}

// Balancer names, as the -balancer flag spells them.
const (
	BalancerAdaptive   = "adaptive"
	BalancerP2C        = "p2c"
	BalancerRoundRobin = "roundrobin"
)

// NewBalancer builds the named balancer for n replicas. seed feeds the
// randomized balancers' private PRNG, so a fleet's routing is reproducible
// for a fixed seed and request sequence.
func NewBalancer(name string, n int, seed int64) (Balancer, error) {
	switch name {
	case "", BalancerAdaptive:
		return newAdaptive(n, seed), nil
	case BalancerP2C:
		return newP2C(n, seed), nil
	case BalancerRoundRobin:
		return newRoundRobin(), nil
	}
	return nil, fmt.Errorf("unknown balancer %q (have %s, %s, %s)",
		name, BalancerAdaptive, BalancerP2C, BalancerRoundRobin)
}

// Pheromone parameters of the adaptive balancer.
const (
	scoreInit      = 1.0  // every replica starts average
	scoreMin       = 0.05 // floor: a degraded replica keeps a trickle of traffic to prove recovery
	scoreMax       = 16.0 // cap: one fast replica must not starve the rest forever
	reinforceAlpha = 0.2  // EWMA weight of one success in the score
	failDecay      = 0.25 // multiplicative score decay per error/timeout
	refAlpha       = 0.1  // EWMA weight of one success in the fleet latency reference
)

// adaptive is SwarmRoute-style pheromone routing: each replica carries a
// score (its pheromone trail), picks are roulette-wheel proportional to
// score, successes reinforce toward the replica's speed relative to the
// fleet-wide latency reference, and errors/timeouts decay the score
// multiplicatively. The floor keeps a degraded replica visible enough to
// re-earn traffic once it recovers (and the health prober re-admits it to
// the candidate set).
type adaptive struct {
	mu    sync.Mutex
	rng   *rand.Rand
	score []float64
	ref   float64 // EWMA of success latency (seconds) across the fleet
}

func newAdaptive(n int, seed int64) *adaptive {
	a := &adaptive{rng: rand.New(rand.NewSource(seed)), score: make([]float64, n)}
	for i := range a.score {
		a.score[i] = scoreInit
	}
	return a
}

func (a *adaptive) Pick(candidates []int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0.0
	for _, c := range candidates {
		total += a.score[c]
	}
	x := a.rng.Float64() * total
	for _, c := range candidates {
		x -= a.score[c]
		if x < 0 {
			return c
		}
	}
	return candidates[len(candidates)-1]
}

func (a *adaptive) Observe(i int, latency time.Duration, o Outcome) {
	if o == OutcomeCanceled {
		return // no pheromone signal either way
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if o == OutcomeFailure {
		a.score[i] *= failDecay
		if a.score[i] < scoreMin {
			a.score[i] = scoreMin
		}
		return
	}
	lat := latency.Seconds()
	if lat <= 0 {
		lat = 1e-9
	}
	if a.ref == 0 {
		a.ref = lat
	} else {
		a.ref = (1-refAlpha)*a.ref + refAlpha*lat
	}
	// Reinforce toward relative speed: 1.0 for a fleet-average success,
	// above for faster-than-average replicas, below for stragglers.
	target := a.ref / lat
	if target > scoreMax {
		target = scoreMax
	}
	if target < scoreMin {
		target = scoreMin
	}
	a.score[i] = (1-reinforceAlpha)*a.score[i] + reinforceAlpha*target
	if a.score[i] > scoreMax {
		a.score[i] = scoreMax
	} else if a.score[i] < scoreMin {
		a.score[i] = scoreMin
	}
}

func (a *adaptive) Scores() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]float64, len(a.score))
	copy(out, a.score)
	return out
}

// p2c is power-of-two-choices: sample two distinct candidates, send the
// point to the one with fewer outstanding attempts (ties broken by EWMA
// success latency). The classic measured baseline against adaptive.
type p2c struct {
	mu  sync.Mutex
	rng *rand.Rand
	out []int     // outstanding picks per replica
	lat []float64 // EWMA success latency (seconds); 0 = no data yet
}

func newP2C(n int, seed int64) *p2c {
	return &p2c{rng: rand.New(rand.NewSource(seed)), out: make([]int, n), lat: make([]float64, n)}
}

func (p *p2c) Pick(candidates []int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	pick := candidates[0]
	if len(candidates) > 1 {
		ai := p.rng.Intn(len(candidates))
		bi := p.rng.Intn(len(candidates) - 1)
		if bi >= ai {
			bi++
		}
		a, b := candidates[ai], candidates[bi]
		pick = a
		if p.out[b] < p.out[a] || (p.out[b] == p.out[a] && p.lat[b] < p.lat[a]) {
			pick = b
		}
	}
	p.out[pick]++
	return pick
}

func (p *p2c) Observe(i int, latency time.Duration, o Outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Every final outcome — canceled included — returns the outstanding
	// slot the Pick took; only successes feed the latency signal.
	if o != OutcomeProgress && p.out[i] > 0 {
		p.out[i]--
	}
	if o == OutcomeSuccess || o == OutcomeProgress {
		lat := latency.Seconds()
		if p.lat[i] == 0 {
			p.lat[i] = lat
		} else {
			p.lat[i] = 0.8*p.lat[i] + 0.2*lat
		}
	}
}

func (p *p2c) Scores() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(p.out))
	for i := range out {
		out[i] = 1 / (1 + float64(p.out[i]))
	}
	return out
}

// roundRobin cycles through the candidate list — the no-signal baseline.
type roundRobin struct {
	mu   sync.Mutex
	next int
}

func newRoundRobin() *roundRobin { return &roundRobin{} }

func (r *roundRobin) Pick(candidates []int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	pick := candidates[r.next%len(candidates)]
	r.next++
	return pick
}

func (r *roundRobin) Observe(int, time.Duration, Outcome) {}

func (r *roundRobin) Scores() []float64 { return nil }
