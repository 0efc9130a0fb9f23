package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/load"
	"ecocharge/internal/trajectory"
	"ecocharge/internal/wire"
)

// The fixture every workload shares. None of these is a flag: a named
// workload means the same thing on every commit.
const (
	profileName = "Oldenburg"
	scale       = 0.005
	// worldSeed fixes the road network, the charger inventory and the
	// component models: they are the dataset, the same on every run. -seed
	// draws the traffic on it.
	worldSeed   = 42
	shards      = 3
	tableK      = 5
	radiusM     = 50000
	vehicles    = 256
	segmentLenM = 4000
	sampleSize  = 300 // tables the quality pass scores
	setupReps   = 3   // set-ups per run; setup_s is their median
	// cacheEntries is the response cache's capacity on one shard under the
	// production eis.ServerOptions defaults. The one-shot key streams are
	// sized against it, and the cache fill fails if it finds a larger cache.
	cacheEntries = 4096
	// fillRadiusM is where the radii of the cache-fill requests start: wide
	// enough that a table has its k entries, small enough that ranking it
	// costs a tenth of a real miss.
	fillRadiusM = 6000
)

// workload is one traffic mix. The zero value of a field means "not used".
type workload struct {
	Name string
	Why  string
	// trip selects POST /offering/trip (one request per trip); otherwise
	// POST /offering (one request per trip segment).
	trip  bool
	plane load.Plane
	// personalEvery makes every n-th vehicle a driver whose trips each carry
	// their own seed-drawn weights; 0 leaves everyone on the server's default
	// equal weights. Going by vehicle keeps the share of personalised
	// requests the same in every stretch of the stream, so a run's cost
	// does not depend on how far into the stream it got.
	//
	// A workload with such one-shot keys fills the response cache sooner or
	// later, so its set-up brings every shard's cache to its capacity before
	// the timed phases (fixture.fillCache), as on a server that has been up
	// for a while. Otherwise the run starts below capacity and crosses into
	// evicting, which on mixed_json costs hot cells their entries (hit ratio
	// 0.90 -> 0.87), at a point that depends on how fast the host is.
	personalEvery int
	// pool is how many queries are routed before the clock starts; the
	// phases walk the pool round after round, personalised trips drawing
	// fresh weights each round, so a one-shot cache key is sent once per walk
	// of the stream. rounds is sized so that one walk holds four times more
	// one-shot keys than a shard's cache has entries: by the time the stream
	// wraps, the cache (which evicts at random here, see README) has dropped
	// all but e^-4 of them, and a run that wraps measures the same mix as
	// one that does not.
	pool   int
	rounds int
	// Warm-up: warmN requests from the head of the stream, one at a time
	// (so the cache contents the quality pass reads repeat exactly) or on
	// nproc senders. warmSkipPersonal leaves one-shot keys out of it.
	warmN            int
	warmSequential   bool
	warmSkipPersonal bool
	// yard shapes the yardstick like this workload's requests.
	yard        yardMix
	openRate    float64       // open-loop arrivals per second
	limit       time.Duration // open-loop latency limit
	sample      int           // requests of the quality pass
	traceSample int           // requests the traced replay follows down the stack
}

var workloads = []workload{
	{
		Name:  "hot_cells",
		Why:   "default weights: the ~400 cache cells fit the response cache, every shard lookup hits; load, fleet, eis HTTP and wire do the work, cknn and roadnet idle",
		plane: load.PlaneWire, pool: 2048, rounds: 1,
		warmN: 2048, warmSequential: true,
		yard:     yardMix{nominal: yardCost{rps: 11200, cpuMS: 0.138, p50MS: 0.141}},
		openRate: 2500, limit: 10 * time.Millisecond, sample: sampleSize, traceSample: 300,
	},
	{
		Name:  "personal_weights",
		Why:   "per-trip weights are part of the cache key, so nearly every request is a full EcoCharge ranking on all three shards; cknn and roadnet do the work",
		plane: load.PlaneWire, personalEvery: 1, pool: 2048, rounds: 8,
		warmN: 256,
		// A shard ranks for about 2 ms and allocates 200 KB doing so.
		yard:     yardMix{searches: 2, garbageKB: 200, every: 1, nominal: yardCost{rps: 398, cpuMS: 4.81, p50MS: 4.73}},
		openRate: 150, limit: 50 * time.Millisecond, sample: sampleSize, traceSample: 100,
	},
	{
		Name: "trip_plan",
		Why:  "POST /offering/trip: shortest-path routing, segmentation, RunTrip with the R/Q dynamic cache and large JSON bodies merged per segment; the response cache is bypassed",
		trip: true, plane: load.PlaneJSON, pool: 1024, rounds: 1,
		warmN: 64,
		// A shard plans a trip for about 6 ms, allocates 580 KB doing so and
		// answers 7 KB of JSON.
		yard: yardMix{searches: 6, garbageKB: 580, every: 1, jsonBodies: true, nominal: yardCost{rps: 133, cpuMS: 14.3, p50MS: 14.2}},
		// A trip answer holds about five tables.
		openRate: 50, limit: 150 * time.Millisecond, sample: sampleSize / 5, traceSample: 40,
	},
	{
		Name:  "mixed_json",
		Why:   "JSON plane, nine drivers in ten hit the cache and one in ten ranks: hits queue behind rankings on the same cores and the JSON codec path is exercised",
		plane: load.PlaneJSON, personalEvery: 10, pool: 2048, rounds: 80,
		warmN: 2048, warmSequential: true, warmSkipPersonal: true,
		yard:     yardMix{searches: 2, garbageKB: 200, every: 10, nominal: yardCost{rps: 3260, cpuMS: 0.580, p50MS: 0.100}},
		openRate: 1000, limit: 25 * time.Millisecond, sample: sampleSize, traceSample: 300,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// request is one pre-encoded exchange plus what the oracle needs to score
// the answer: the decoded form of exactly the bytes in body.
type request struct {
	path        string
	contentType string
	accept      string
	body        []byte
	personal    bool // one-shot cache key: weights drawn for this trip and round

	offering wire.OfferingRequest    // /offering
	tripReq  eis.TripOfferingRequest // /offering/trip
}

func (r *request) isTrip() bool { return r.tripReq.Waypoints != nil }

func buildScenario() (*experiment.Scenario, error) {
	return experiment.BuildScenario(profileName, scale, worldSeed)
}

// generate routes the workload's trips and encodes every request the run
// can send, before any clock starts: the stream the phases walk and, for a
// workload with one-shot keys, the cache-fill requests. Both are a function of
// (workload, seed) alone. Trips come from the seeded sampler; weights from
// their own seeded source, so adding a round never shifts the trips.
func generate(w workload, sc *experiment.Scenario, seed int64) (reqs, fill []*request, err error) {
	sampler, err := trajectory.NewSampler(sc.Graph, sc.Profile.SamplerConfig(seed, sc.Start))
	if err != nil {
		return nil, nil, err
	}
	if w.trip {
		reqs, err = generateTrips(w, sc, sampler)
		return reqs, nil, err
	}
	wrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	sessions, err := load.NewSessions(sc.Graph, sampler, vehicles, segmentLenM)
	if err != nil {
		return nil, nil, err
	}
	queries := make([]load.Query, w.pool)
	for i := range queries {
		if queries[i], err = sessions.Next(); err != nil {
			return nil, nil, err
		}
	}
	contentType, accept := "application/json", ""
	if w.plane == load.PlaneWire {
		contentType, accept = wire.ContentType, wire.ContentType
	}
	encode := func(q load.Query, weights wire.WeightsJSON, radius float64) (*request, error) {
		r := &request{
			path: eis.APIVersion + "/offering", contentType: contentType, accept: accept,
			offering: wire.OfferingRequest{
				Lat: q.Lat, Lon: q.Lon, K: tableK, RadiusM: radius,
				Now: sc.Start, ETA: q.ETA, Weights: weights,
			},
		}
		var err error
		r.body, err = encodeOffering(&r.offering, w.plane)
		return r, err
	}
	reqs = make([]*request, 0, w.pool*w.rounds)
	for round := 0; round < w.rounds; round++ {
		weights := make(map[int64]wire.WeightsJSON) // per trip, this round
		for i, q := range queries {
			personal := w.personalEvery > 0 && (i%vehicles)%w.personalEvery == 0
			if !personal && round > 0 {
				// Default-weight bodies are the same every round: share them.
				reqs = append(reqs, reqs[len(reqs)-w.pool])
				continue
			}
			var wt wire.WeightsJSON
			if personal {
				var ok bool
				if wt, ok = weights[q.TripID]; !ok {
					wt = wire.WeightsJSON{L: 0.1 + wrng.Float64(), A: 0.1 + wrng.Float64(), D: 0.1 + wrng.Float64()}
					weights[q.TripID] = wt
				}
			}
			r, err := encode(q, wt, radiusM)
			if err != nil {
				return nil, nil, err
			}
			r.personal = personal
			reqs = append(reqs, r)
		}
	}
	if w.personalEvery > 0 {
		// The cache fill. The radius is part of the cache key: each fill request is a key of
		// its own, and a search this narrow is cheap to rank. Twice the
		// capacity, because keys hash unevenly over the cache's stripes and
		// the last stripe fills late.
		fill = make([]*request, 2*cacheEntries)
		for i := range fill {
			if fill[i], err = encode(queries[i%len(queries)], wire.WeightsJSON{}, fillRadiusM+float64(i)); err != nil {
				return nil, nil, err
			}
		}
	}
	return reqs, fill, nil
}

func encodeOffering(o *wire.OfferingRequest, plane load.Plane) ([]byte, error) {
	if plane == load.PlaneWire {
		return wire.AppendOfferingRequest(nil, o), nil
	}
	return json.Marshal(o)
}

// generateTrips turns each sampled trip into one whole-trip request with
// five waypoints: its first and last path node and three interior ones.
func generateTrips(w workload, sc *experiment.Scenario, sampler *trajectory.Sampler) ([]*request, error) {
	reqs := make([]*request, w.pool)
	for i := range reqs {
		trip, err := sampler.Next()
		if err != nil {
			return nil, err
		}
		nodes := trip.Path.Nodes
		tr := eis.TripOfferingRequest{
			Depart: trip.Depart, K: tableK, RadiusM: radiusM, SegmentLenM: segmentLenM,
		}
		for frac := 0; frac <= 4; frac++ {
			p := sc.Graph.Node(nodes[(len(nodes)-1)*frac/4]).P
			tr.Waypoints = append(tr.Waypoints, eis.LatLon{Lat: p.Lat, Lon: p.Lon})
		}
		body, err := json.Marshal(tr)
		if err != nil {
			return nil, err
		}
		reqs[i] = &request{
			path: eis.APIVersion + "/offering/trip", contentType: "application/json",
			body: body, tripReq: tr,
		}
	}
	return reqs, nil
}
