package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// probe runs one active health check against the member and refreshes its
// inventory when needed (first success, or first success after a failure —
// a restarted shard may own a different partition). Probe failures count
// against the breaker; probe successes only update probeOK.
func (g *Gateway) probe(ctx context.Context, m *member) {
	met.probes.Inc()
	ok := g.probeOnce(ctx, m.primary.base)
	if !ok && m.replica != nil {
		// A live replica keeps the shard probe-healthy: requests will hedge
		// to it immediately.
		ok = g.probeOnce(ctx, m.replica.base)
	}
	wasOK := m.probeOK.Swap(ok)
	if !ok {
		met.probeFailures.Inc()
		m.breaker.OnFailure()
		return
	}
	if m.inventory.Load() == nil || !wasOK {
		g.pullInventory(ctx, m)
	}
}

func (g *Gateway) probeOnce(ctx context.Context, base string) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.opts.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// pullInventory fetches the member's charger partition. A failed pull is
// not a health event — the next probe retries it.
func (g *Gateway) pullInventory(ctx context.Context, m *member) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.primary.base+eis.APIVersion+"/inventory", nil)
	if err != nil {
		return
	}
	if accept := g.shardAccept(); accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := g.opts.HTTPClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	// Pooled read: inventory pulls are the gateway's largest payloads, and
	// one reusable buffer replaces a ReadAll regrowth per probe cycle. The
	// decoded inventory is a fresh slice, so releasing the buffer is safe.
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	if err := buf.ReadLimit(resp.Body, maxShardResponseBytes); err != nil ||
		resp.StatusCode != http.StatusOK || int64(len(buf.B)) > maxShardResponseBytes {
		return
	}
	var inv []charger.Charger
	if wire.IsWire(resp.Header.Get("Content-Type")) {
		decoded, err := wire.DecodeChargers(buf.B, nil)
		if err != nil {
			return
		}
		inv = decoded
	} else if err := json.Unmarshal(buf.B, &inv); err != nil {
		return
	}
	m.inventory.Store(&inv)
	var supply *supplyTerms
	if terms, ok := eis.CacheTermsFrom(resp.Header); ok && g.env != nil && terms.World == g.world {
		supply = newSupplyTerms(terms, inv)
	}
	m.supply.Store(supply)
	met.inventoryPulls.Inc()
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
