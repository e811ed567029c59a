package cluster

// Per-node health tracking for the coordinator: consecutive-failure
// circuit breakers with exponential backoff + jitter, and an active
// probe loop that closes breakers as soon as a node answers /healthz
// again.
//
// States follow the classic breaker: closed (healthy, requests flow),
// open (tripped, skipped until its backoff expires), half-open (backoff
// expired, the next request is a trial — success closes, failure
// re-opens with doubled backoff). Open and half-open nodes are still
// kept as last-resort candidates in the try order, so a shard whose
// every node tripped degrades to a retry against them, not an
// immediate 503.

import (
	"math/rand"
	"sync"
	"time"
)

// Breaker states, exported as the urel_node_state gauge.
const (
	nodeClosed   = 0
	nodeHalfOpen = 1
	nodeOpen     = 2
)

// HealthOptions tunes per-node failure handling.
type HealthOptions struct {
	// FailThreshold is how many consecutive failures trip the breaker.
	// Default 3.
	FailThreshold int
	// BaseBackoff is the first open interval; each consecutive trip
	// doubles it. Default 250ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the open interval. Default 15s.
	MaxBackoff time.Duration
	// Jitter is the ± fraction applied to each backoff. Default 0.2.
	Jitter float64
	// ProbeInterval is the active /healthz probe cadence while any
	// breaker is not closed; probes never run when every node is
	// healthy. Default 500ms; negative disables probing.
	ProbeInterval time.Duration
}

func (o HealthOptions) withDefaults() HealthOptions {
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 250 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 15 * time.Second
	}
	if o.Jitter <= 0 {
		o.Jitter = 0.2
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	return o
}

type nodeHealth struct {
	state     int
	fails     int // consecutive failures since last success
	trips     int // consecutive breaker trips (drives the backoff exponent)
	openUntil time.Time
}

type healthTracker struct {
	opts HealthOptions

	mu    sync.Mutex
	rng   *rand.Rand
	nodes map[string]*nodeHealth
}

func newHealthTracker(opts HealthOptions) *healthTracker {
	return &healthTracker{
		opts:  opts.withDefaults(),
		rng:   rand.New(rand.NewSource(1)),
		nodes: map[string]*nodeHealth{},
	}
}

func (t *healthTracker) get(node string) *nodeHealth {
	h := t.nodes[node]
	if h == nil {
		h = &nodeHealth{}
		t.nodes[node] = h
	}
	return h
}

// observe records one request or probe outcome for node.
func (t *healthTracker) observe(node string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.get(node)
	if ok {
		h.state = nodeClosed
		h.fails = 0
		h.trips = 0
		return
	}
	h.fails++
	if h.state == nodeHalfOpen || h.fails >= t.opts.FailThreshold {
		h.trips++
		h.state = nodeOpen
		h.openUntil = time.Now().Add(t.backoffLocked(h.trips))
		h.fails = 0
	}
}

// backoffLocked is BaseBackoff doubled per consecutive trip, capped at
// MaxBackoff, with ±Jitter so a fleet of coordinators does not retry a
// recovering node in lockstep.
func (t *healthTracker) backoffLocked(trips int) time.Duration {
	d := t.opts.BaseBackoff
	for i := 1; i < trips && d < t.opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > t.opts.MaxBackoff {
		d = t.opts.MaxBackoff
	}
	j := 1 + t.opts.Jitter*(2*t.rng.Float64()-1)
	return time.Duration(float64(d) * j)
}

// split partitions nodes (already in preferred order) into ready ones
// (closed, or open with an expired backoff — those transition to
// half-open here) and tripped ones still inside their backoff.
func (t *healthTracker) split(nodes []string) (ready, tripped []string) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range nodes {
		h := t.nodes[n]
		switch {
		case h == nil || h.state == nodeClosed || h.state == nodeHalfOpen:
			ready = append(ready, n)
		case now.Before(h.openUntil):
			tripped = append(tripped, n)
		default:
			h.state = nodeHalfOpen
			ready = append(ready, n)
		}
	}
	return ready, tripped
}

// stateOf reports the node's breaker state for the urel_node_state
// gauge.
func (t *healthTracker) stateOf(node string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.nodes[node]; h != nil {
		return h.state
	}
	return nodeClosed
}

// unhealthy returns the nodes whose breaker is not closed — the active
// probe set. Empty in steady state, so probing costs nothing then.
func (t *healthTracker) unhealthy() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for n, h := range t.nodes {
		if h.state != nodeClosed {
			out = append(out, n)
		}
	}
	return out
}
