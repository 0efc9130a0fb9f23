package load

import (
	"context"
	"net/http"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// fixedNow pins the scenario clock: a summer Tuesday morning with active
// solar, matching the fleet suite's time base.
var fixedNow = time.Date(2024, 6, 18, 9, 30, 0, 0, time.UTC)

// testEnv is the small urban environment of the fleet chaos suite: an
// 8×6 km grid with 80 chargers — big enough for real tables, small enough
// that a rate step runs in well under a second.
func testEnv(t testing.TB) *cknn.Env {
	t.Helper()
	g := roadnet.GenerateUrban(roadnet.UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 8, HeightKM: 6,
		SpacingM: 500, RemoveFrac: 0.05, JitterFrac: 0.2, ArterialEach: 5, Seed: 1,
	})
	avail := ec.NewAvailabilityModel(2)
	set, err := charger.Generate(g, avail, charger.GenConfig{N: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	env, err := cknn.NewEnv(g, set, ec.NewSolarModel(4), avail, ec.NewTrafficModel(5), cknn.EnvConfig{RadiusM: 8000})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// testSessions builds a query source over the test env's graph.
func testSessions(t testing.TB, env *cknn.Env, seed int64) *Sessions {
	t.Helper()
	sampler, err := trajectory.NewSampler(env.Graph, trajectory.GenConfig{
		Seed: seed, MinTripKM: 1, Start: fixedNow, Window: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSessions(env.Graph, sampler, 32, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// delayHandler injects fixed service latency under the shedding
// middleware, standing in for real ranking work so the tiny in-flight cap
// actually bites. The wait observes the request context (never a bare
// sleep), so canceled requests release their slot immediately.
func delayHandler(d time.Duration) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case <-r.Context().Done():
				return
			case <-timer.C:
			}
			next.ServeHTTP(w, r)
		})
	}
}

// overloadFleet is the saturation fixture: 3 shards, 2 in-flight slots and
// 25 ms injected service latency each — a hard capacity of 240 requests/s
// that the suite's 600/s offered load overruns 2.5×.
func overloadFleet(t *testing.T, env *cknn.Env) *Inproc {
	t.Helper()
	ip, err := StartInproc(env, InprocOptions{
		Shards:      3,
		MaxInFlight: 2,
		Clock:       func() time.Time { return fixedNow },
		Wrap:        delayHandler(25 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ip.Close)
	return ip
}

// TestOverloadContract drives the stack far past saturation on both planes
// and asserts the overload contract on every single response:
//
//   - every answer is a tabletest-valid 200 (possibly degraded) or a 503
//     with a parseable Retry-After — OutcomeInvalid counts corrupt or
//     misordered bodies and malformed sheds, and must stay zero;
//   - no request is observed past its deadline (no hung connections);
//   - the overload actually bites, otherwise the test proves nothing;
//   - the bare shard computes rankings under it in each plane's run, not
//     only cache hits, so that the shed requests compete with ranking work.
//
// Two targets see two shapes of the same contract: a bare shard sheds
// client-visible 503s, while the gateway absorbs shard sheds into
// tabletest-valid degraded merges. Each plane asks keys of its own (its own
// sessions and k), so no run meets a cache the other plane's run warmed.
func TestOverloadContract(t *testing.T) {
	env := testEnv(t)
	ip := overloadFleet(t, env)
	const timeout = 3 * time.Second

	targets := []struct {
		name string
		url  string
		// bit asserts that saturation surfaced the way this target sheds;
		// computed is the rankings (single-flight leads) the run computed.
		bit func(t *testing.T, res Result, computed uint64)
	}{
		{"shard", ip.ShardURLs[0], func(t *testing.T, res Result, computed uint64) {
			t.Helper()
			if res.Shed == 0 {
				t.Fatalf("saturated bare shard never shed (valid %d, degraded %d, errors %d)", res.Valid, res.Degraded, res.Errors)
			}
			if computed == 0 {
				t.Fatalf("saturated bare shard computed no ranking in its run: all %d answers were cache hits", res.Valid+res.Degraded)
			}
		}},
		{"gateway", ip.URL, func(t *testing.T, res Result, _ uint64) {
			t.Helper()
			if res.Degraded == 0 && res.Shed == 0 && res.Errors == 0 {
				t.Fatalf("saturated gateway showed no overload at all (valid %d)", res.Valid)
			}
		}},
	}
	// A key is the cell, k, R and the weights: sessions of their own move
	// the anchors, but the test world holds few cells, so k tells the
	// planes' keys apart.
	planes := []struct {
		plane Plane
		seed  int64
		k     int
	}{{PlaneJSON, 23, 5}, {PlaneWire, 29, 4}}
	leads := obs.Default().Counter("eis_singleflight_leads_total")
	for _, target := range targets {
		for _, p := range planes {
			plane := p.plane
			t.Run(target.name+"/"+string(plane), func(t *testing.T) {
				before := leads.Value()
				runner, err := NewRunner(Options{
					BaseURL: target.url, Plane: plane,
					K: p.k, Now: fixedNow,
					Timeout: timeout, Workers: 64,
				})
				if err != nil {
					t.Fatal(err)
				}
				sched, err := Poisson(600, 600, 17)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runner.Run(context.Background(), testSessions(t, env, p.seed), sched, 600)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Sent != res.Offered {
					t.Fatalf("sent %d of %d offered", res.Sent, res.Offered)
				}
				if got := res.Valid + res.Degraded + res.Shed + res.Invalid + res.Errors; got != res.Sent {
					t.Fatalf("accounting leak: %d classified of %d sent", got, res.Sent)
				}
				if res.Invalid > 0 {
					t.Fatalf("%d contract violations; first: %s", res.Invalid, res.FirstViolation)
				}
				if res.Valid+res.Degraded == 0 {
					t.Fatal("no successful answers at all under overload; shedding should spare capacity, not consume it")
				}
				target.bit(t, res, leads.Value()-before)
				const slack = 2 * time.Second // scheduler + accept-queue headroom on a loaded CI box
				if res.MaxLat > timeout+slack {
					t.Fatalf("request observed %v after its intended start with a %v deadline — a request hung past its deadline", res.MaxLat, timeout)
				}
			})
		}
	}
}

// TestRunnerValidAtLowRate is the complement: an unsaturated run must be
// all valid answers, byte-clean on both planes.
func TestRunnerValidAtLowRate(t *testing.T) {
	env := testEnv(t)
	ip, err := StartInproc(env, InprocOptions{
		Shards: 3,
		Clock:  func() time.Time { return fixedNow },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()

	for _, plane := range []Plane{PlaneJSON, PlaneWire} {
		runner, err := NewRunner(Options{
			BaseURL: ip.URL, Plane: plane, K: 5, Now: fixedNow,
			Timeout: 5 * time.Second, Workers: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := Poisson(100, 60, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(context.Background(), testSessions(t, env, 5), sched, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.Valid != res.Offered {
			t.Fatalf("%s: %d valid of %d offered (degraded %d, shed %d, invalid %d, errors %d; first: %s)",
				plane, res.Valid, res.Offered, res.Degraded, res.Shed, res.Invalid, res.Errors, res.FirstViolation)
		}
		if res.Latency.Count() != uint64(res.Sent) {
			t.Fatalf("%s: %d latencies recorded for %d requests", plane, res.Latency.Count(), res.Sent)
		}
	}
}
