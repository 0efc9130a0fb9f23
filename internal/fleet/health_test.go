package fleet

import (
	"context"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ecocharge/internal/eis"
	"ecocharge/internal/wire"
)

// TestFleetProbeRepullsAfterFailedPull: a shard comes back from a failure
// owning another partition, and the pull after its first healthy probe
// fails. The gateway pulls again at the next healthy probe, and at every
// one after until a pull succeeds — it does not keep the pre-restart
// inventory until some later probe fails.
func TestFleetProbeRepullsAfterFailedPull(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	f := newFleetOver(t, envs, Options{})
	restarted := envs[1] // the partition shard 0 owns after its restart
	if got := f.gw.Status()[0].Inventory; got != envs[0].Chargers.Len() || got == restarted.Chargers.Len() {
		t.Fatalf("shard 0 holds %d chargers before the restart; the test wants %d, and not %d", got, envs[0].Chargers.Len(), restarted.Chargers.Len())
	}
	ctx := context.Background()

	f.shards[0].set(shardDown)
	f.gw.ProbeAll(ctx)

	var pulls atomic.Int64
	var pullsFail atomic.Bool
	pullsFail.Store(true)
	serve := eis.NewServer(restarted, eis.ServerOptions{}).Handler()
	f.shards[0].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/inventory") {
			pulls.Add(1)
			if pullsFail.Load() {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
		}
		serve.ServeHTTP(w, r)
	}))
	f.gw.ProbeAll(ctx)
	if n := pulls.Load(); n != 1 {
		t.Fatalf("the first healthy probe after the failure pulled %d times, want 1", n)
	}
	if st := f.gw.Status()[0]; !st.ProbeOK || st.Inventory != envs[0].Chargers.Len() {
		t.Fatalf("after a failed pull: %+v, want probe-healthy on the inventory held", st)
	}

	f.gw.ProbeAll(ctx) // the pull fails again: the inventory stays stale
	pullsFail.Store(false)
	f.gw.ProbeAll(ctx)
	f.gw.ProbeAll(ctx)
	if n := pulls.Load(); n != 3 {
		t.Fatalf("%d pulls over four healthy probes with two failing pulls, want 3: every probe pulls until one succeeds, none after", n)
	}
	if got := f.gw.Status()[0].Inventory; got != restarted.Chargers.Len() {
		t.Fatalf("shard 0's inventory holds %d chargers, the restarted shard owns %d", got, restarted.Chargers.Len())
	}
}

// TestFleetRefusesInventoryWithRepeatedID: a shard whose inventory lists a
// charger twice is outside input no charger.Set holds. The pull fails, the
// member keeps the inventory it held and stays stale, and the next healthy
// probe pulls again.
func TestFleetRefusesInventoryWithRepeatedID(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	f := newFleetOver(t, envs, Options{})
	ctx := context.Background()
	held := envs[0].Chargers.Len()

	f.shards[0].set(shardDown)
	f.gw.ProbeAll(ctx)

	var pulls atomic.Int64
	repeated := append(slices.Clone(envs[1].Chargers.All()), envs[1].Chargers.All()[0])
	serve := eis.NewServer(envs[1], eis.ServerOptions{}).Handler()
	f.shards[0].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/inventory") {
			serve.ServeHTTP(w, r)
			return
		}
		pulls.Add(1)
		eis.WriteBody(w, http.StatusOK, wire.ContentType, wire.AppendChargers(nil, repeated))
	}))
	f.gw.ProbeAll(ctx)
	f.gw.ProbeAll(ctx)
	if n := pulls.Load(); n != 2 {
		t.Fatalf("two healthy probes pulled %d times, want 2: a refused inventory leaves the member stale", n)
	}
	if st := f.gw.Status()[0]; !st.ProbeOK || st.Inventory != held {
		t.Fatalf("after pulling %d chargers with a repeated ID: %+v, want probe-healthy on the %d chargers held", len(repeated), st, held)
	}
}
