// Package experiment implements the paper's trace-driven evaluation (§V):
// it assembles dataset scenarios (road network + charger inventory + trip
// workload), runs the four ranking methods over them, and reports the two
// metrics of every figure — the Sustainability Score as a percentage of the
// Brute-Force optimum (SC%) and the CPU execution time per query (F_t) —
// as mean ± standard deviation over repetitions.
package experiment

import (
	"fmt"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/ec"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// Scenario is one instantiated dataset: everything a run needs.
type Scenario struct {
	Name    string
	Profile *trajectory.Profile
	Graph   *roadnet.Graph
	Env     *cknn.Env
	Trips   []trajectory.Trip
	Scale   float64
	Seed    int64
	Start   time.Time
}

// DefaultStart is the reference wall-clock the experiments run at: a summer
// Tuesday morning, so solar production and commuter traffic are both active.
var DefaultStart = time.Date(2024, 6, 18, 9, 0, 0, 0, time.UTC)

// BuildScenario assembles the named dataset at the given trip scale.
// scale 1.0 reproduces the paper's full trajectory counts; experiments
// default to a reduced scale (reported with the results) to keep wall-clock
// time reasonable on a laptop.
func BuildScenario(profileName string, scale float64, seed int64) (*Scenario, error) {
	p, err := trajectory.ProfileByName(profileName)
	if err != nil {
		return nil, err
	}
	return BuildScenarioFromProfile(p, scale, seed)
}

// ServedScenario is the world of the dataset and seed an EIS serves and a
// fleet gateway searches for its shards: cmd/eis and cmd/gateway both build
// it here, so a gateway started with its shards' flags holds their road
// world (cknn.Env.RoadWorld) to the bit. A server reads no trips; the
// smallest scale keeps their generation short.
func ServedScenario(dataset string, seed int64) (*Scenario, error) {
	return BuildScenario(dataset, 0.001, seed)
}

// BuildScenarioFromProfile is BuildScenario for an already-resolved profile.
func BuildScenarioFromProfile(p *trajectory.Profile, scale float64, seed int64) (*Scenario, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("experiment: scale must be positive, got %v", scale)
	}
	g := p.BuildGraph(seed)
	// Departures start at local solar morning: the reference 09:00 applies
	// at the dataset's own longitude (Beijing mornings are not Oldenburg
	// mornings in UTC), so solar production is comparably active across
	// datasets.
	lonOffset := time.Duration(g.Bounds().Center().Lon / 15 * float64(time.Hour))
	start := DefaultStart.Add(-lonOffset)
	avail := ec.NewAvailabilityModel(seed + 1)
	set, err := charger.Generate(g, avail, charger.GenConfig{N: p.Chargers, Seed: seed + 2})
	if err != nil {
		return nil, fmt.Errorf("experiment: generating chargers for %s: %w", p.Name, err)
	}
	env, err := cknn.NewEnv(g, set,
		ec.NewSolarModel(seed+3), avail, ec.NewTrafficModel(seed+4),
		cknn.EnvConfig{RadiusM: 50000, Wind: ec.NewWindModel(seed + 6)})
	if err != nil {
		return nil, fmt.Errorf("experiment: environment for %s: %w", p.Name, err)
	}
	trips, err := p.GenerateTrips(g, scale, seed+5, start)
	if err != nil {
		return nil, fmt.Errorf("experiment: trips for %s: %w", p.Name, err)
	}
	return &Scenario{
		Name: p.Name, Profile: p, Graph: g, Env: env,
		Trips: trips, Scale: scale, Seed: seed, Start: start,
	}, nil
}

// BuildAllScenarios assembles the four evaluation datasets at the scale.
func BuildAllScenarios(scale float64, seed int64) ([]*Scenario, error) {
	var out []*Scenario
	for _, p := range trajectory.Profiles() {
		sc, err := BuildScenarioFromProfile(p, scale, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}
