package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/eis"
)

// member is the gateway's view of one shard: its addresses, a circuit
// breaker fed by both active probes and passive request outcomes, the
// latest probe verdict, and the chargers the shard owns — the partition of
// the gateway's own world (ShardEnv), from which the merge synthesizes
// ignorance-bound entries while the shard does not answer.
//
// Health semantics: the breaker is the fail-fast gate for API traffic. It
// counts consecutive faults from any source — probe failures keep it
// current through idle blackouts, passive request failures catch the
// asymmetric partition whose probes lie healthy — while only real API
// successes close it (a probe success never does, so a lying probe cannot
// mask a dead data path). Under the inverse asymmetry (probes dead, data
// path fine) steady traffic keeps resetting the consecutive-fault count, so
// the shard stays closed; an idle shard opens conservatively and the
// half-open trial request self-corrects at the first real call.
type member struct {
	index int
	// primary and replica (nil when the shard has none) carry the request
	// templates of the two base URLs.
	primary *target
	replica *target
	breaker *eis.Breaker

	// probeOK is the latest active-probe verdict. It never gates traffic by
	// itself; it removes the hedge delay (a shard that just failed its probe
	// is hedged immediately) and feeds the status surface.
	probeOK atomic.Bool

	// chargers is the shard's partition of the gateway's world, indexed as
	// the shard indexes it. It never changes.
	chargers *charger.Set

	// seen holds the keys fanned out to the shard (travel.go): nil while the
	// gateway may not search on the shard's behalf — no probe has answered,
	// or the last one that did stated another world — and empty again at the
	// first probe that states the gateway's world after a failed one or
	// after another world, a shard that came back possibly having an empty
	// cache.
	seen atomic.Pointer[eis.SeenFilter]
}

func newMember(index int, s Shard, chargers *charger.Set, opts Options) (*member, error) {
	m := &member{
		index:    index,
		breaker:  eis.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.Clock),
		chargers: chargers,
	}
	var err error
	if m.primary, err = newTarget(s.URL); err != nil {
		return nil, fmt.Errorf("fleet: shard %d URL %v", index, err)
	}
	if s.Replica != "" {
		if m.replica, err = newTarget(s.Replica); err != nil {
			return nil, fmt.Errorf("fleet: shard %d replica URL %v", index, err)
		}
	}
	m.probeOK.Store(true) // optimistic until the first probe says otherwise
	return m, nil
}

// probeTimeout bounds one health probe; probes must stay much cheaper than
// the per-shard request deadline.
const probeTimeout = 2 * time.Second

// probe runs one active health check against the member and reads the road
// world the answering target states. Probe failures count against the
// breaker; probe successes only update probeOK and the member's filter.
func (g *Gateway) probe(ctx context.Context, m *member) {
	met.probes.Inc()
	ok, world := g.probeOnce(ctx, m.primary)
	if !ok && m.replica != nil {
		// A live replica keeps the shard probe-healthy: requests will hedge
		// to it immediately.
		ok, world = g.probeOnce(ctx, m.replica)
	}
	wasOK := m.probeOK.Swap(ok)
	switch {
	case !ok:
		met.probeFailures.Inc()
		m.breaker.OnFailure()
	case world != g.world:
		m.seen.Store(nil)
	case !wasOK || m.seen.Load() == nil:
		m.seen.Store(new(eis.SeenFilter))
	}
}

// probeOnce probes t and returns whether it answered, and the world it
// stated (0: none).
func (g *Gateway) probeOnce(ctx context.Context, t *target) (bool, uint64) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	res := g.attempt(ctx, t, &call{ep: epHealthz})
	defer res.release()
	return res.ok(), res.header.world
}

// ProbeAll runs one synchronous probe round over every member and updates
// the unhealthy gauge. Run calls it periodically; tests call it directly to
// step membership deterministically.
func (g *Gateway) ProbeAll(ctx context.Context) {
	for _, m := range g.members {
		g.probe(ctx, m)
	}
	unhealthy := int64(0)
	for _, m := range g.members {
		if !m.probeOK.Load() || m.breaker.Open() {
			unhealthy++
		}
	}
	met.shardsUnhealthy.Set(unhealthy)
}

// Run probes the fleet until the context is cancelled: one immediate round,
// then one every ProbeInterval. It blocks; start it on its own goroutine.
func (g *Gateway) Run(ctx context.Context) {
	g.ProbeAll(ctx)
	ticker := time.NewTicker(g.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.ProbeAll(ctx)
		}
	}
}

// ShardStatus is one row of the gateway's status surface.
type ShardStatus struct {
	Index     int    `json:"index"`
	URL       string `json:"url"`
	Replica   string `json:"replica,omitempty"`
	ProbeOK   bool   `json:"probe_ok"`
	Breaker   string `json:"breaker"`
	Inventory int    `json:"inventory"` // chargers the shard owns in the gateway's world
	// Searched says the last probe the shard answered stated the gateway's
	// world: the gateway searches on its behalf.
	Searched bool `json:"searched"`
}

// Status reports the fleet membership view.
func (g *Gateway) Status() []ShardStatus {
	out := make([]ShardStatus, len(g.members))
	for i, m := range g.members {
		replica := ""
		if m.replica != nil {
			replica = m.replica.base
		}
		out[i] = ShardStatus{
			Index:     m.index,
			URL:       m.primary.base,
			Replica:   replica,
			ProbeOK:   m.probeOK.Load(),
			Breaker:   m.breaker.State(),
			Inventory: m.chargers.Len(),
			Searched:  m.seen.Load() != nil,
		}
	}
	return out
}
