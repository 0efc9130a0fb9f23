package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/eis"
	"ecocharge/internal/wire"
)

// member is the gateway's view of one shard: its addresses, a circuit
// breaker fed by both active probes and passive request outcomes, the
// latest probe verdict, and the shard's charger inventory (pulled on probe
// success, retained through outages so the merge can synthesize
// ignorance-bound entries for a dead shard's chargers).
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

	// inventory is the shard's charger partition, pulled on probe success.
	// Nil until the first successful pull.
	inventory atomic.Pointer[[]charger.Charger]
	// stale says the inventory is to be pulled at the next probe that
	// answers: none was pulled yet, the shard failed a probe since (a
	// restarted shard may own another partition), or the last pull failed.
	stale atomic.Bool

	// supply is what the gateway searches on the shard's behalf by, from the
	// same pull; nil while it may not (see supplyTerms).
	supply atomic.Pointer[supplyTerms]
}

func newMember(index int, s Shard, opts Options) (*member, error) {
	m := &member{
		index:   index,
		breaker: eis.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.Clock),
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
	m.stale.Store(true)
	return m, nil
}

// chargers returns the last pulled inventory, or nil when none succeeded
// yet.
func (m *member) chargers() []charger.Charger {
	if p := m.inventory.Load(); p != nil {
		return *p
	}
	return nil
}

// probeTimeout bounds one health probe or inventory pull; probes must stay
// much cheaper than the per-shard request deadline.
const probeTimeout = 2 * time.Second

// probe runs one active health check against the member and, while its
// inventory is stale, pulls it from the target that answered. Probe
// failures count against the breaker; probe successes only update probeOK.
// A failed pull is not a health event: the inventory stays stale, and the
// next probe that answers pulls again.
func (g *Gateway) probe(ctx context.Context, m *member) {
	met.probes.Inc()
	t := m.primary
	ok := g.probeOnce(ctx, t)
	if !ok && m.replica != nil {
		// A live replica keeps the shard probe-healthy: requests will hedge
		// to it immediately.
		t = m.replica
		ok = g.probeOnce(ctx, t)
	}
	m.probeOK.Store(ok)
	if !ok {
		met.probeFailures.Inc()
		m.breaker.OnFailure()
		m.stale.Store(true)
		return
	}
	if m.stale.Load() && g.pullInventory(ctx, m, t) {
		m.stale.Store(false)
	}
}

func (g *Gateway) probeOnce(ctx context.Context, t *target) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	res := g.attempt(ctx, t, &call{method: http.MethodGet, ep: epHealthz, header: g.header("", wire.ContentType)})
	defer res.release()
	return res.ok()
}

// pullInventory fetches the member's charger partition from t, with the
// cache terms the shard states beside it, and reports whether it succeeded.
func (g *Gateway) pullInventory(ctx context.Context, m *member, t *target) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	res := g.attempt(ctx, t, &call{method: http.MethodGet, ep: epInventory, header: g.header("", wire.ContentType)})
	defer res.release()
	if !res.ok() {
		return false
	}
	inv, err := decodeChargerList(&res)
	if err != nil {
		return false
	}
	m.inventory.Store(&inv)
	var supply *supplyTerms
	if terms, ok := eis.CacheTermsFrom(res.header); ok && g.env != nil && terms.World == g.world {
		supply = newSupplyTerms(terms, inv)
	}
	m.supply.Store(supply)
	met.inventoryPulls.Inc()
	return true
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
	Inventory int    `json:"inventory"` // chargers in the cached partition; -1 = never pulled
}

// Status reports the fleet membership view.
func (g *Gateway) Status() []ShardStatus {
	out := make([]ShardStatus, len(g.members))
	for i, m := range g.members {
		n := -1
		if inv := m.inventory.Load(); inv != nil {
			n = len(*inv)
		}
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
			Inventory: n,
		}
	}
	return out
}
