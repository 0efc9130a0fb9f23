package cknn_test

// Chaos harness for the graceful-degradation contract: trips run through
// every ranking method with deterministic source faults injected at 0%, 10%
// and 30%. Rate 0 must be byte-identical to the fault-free engine (wiring a
// FaultPolicy costs nothing when it never fires); nonzero rates must still
// produce valid, totally-ordered Offering Tables whose Degraded tags name
// exactly the components the policy failed (run `make chaos` for the -race
// form).

import (
	"reflect"
	"testing"

	"ecocharge/internal/cknn"
	"ecocharge/internal/cknn/tabletest"
	"ecocharge/internal/experiment"
	"ecocharge/internal/fault"
)

func chaosScenario(t *testing.T) *experiment.Scenario {
	t.Helper()
	sc, err := experiment.BuildScenario("Oldenburg", 0.0005, 7)
	if err != nil {
		t.Fatalf("BuildScenario: %v", err)
	}
	if len(sc.Trips) == 0 {
		t.Fatal("scenario produced no trips")
	}
	return sc
}

// faultedEnv returns a shallow copy of the scenario environment with the
// policy installed: the copy shares graph/chargers/models (so charger
// pointers stay comparable across runs) but carries its own Faults.
func faultedEnv(env *cknn.Env, rate float64, seed int64) *cknn.Env {
	cp := *env
	cp.Faults = fault.Sources(fault.New(fault.Config{Seed: seed, Rate: rate}))
	return &cp
}

func chaosTrips(sc *experiment.Scenario) []int {
	n := len(sc.Trips)
	if n > 2 {
		n = 2
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

var chaosOpts = cknn.TripOptions{K: 3, SegmentLenM: 4000}

// TestChaosRateZeroByteIdentical asserts the degradation path is free when
// nothing fails: a wired FaultPolicy at rate 0 reproduces the nil-policy
// output byte for byte, for every method.
func TestChaosRateZeroByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario builds are slow")
	}
	sc := chaosScenario(t)
	envZero := faultedEnv(sc.Env, 0, 1)
	for _, mt := range equivalenceMethods(sc.Env) {
		mt := mt
		t.Run(mt.name, func(t *testing.T) {
			for _, ti := range chaosTrips(sc) {
				trip := sc.Trips[ti]
				want := cknn.RunTrip(sc.Env, mt.build(), trip, chaosOpts)
				faulted := equivalenceMethodByName(t, envZero, mt.name)
				got := cknn.RunTrip(envZero, faulted, trip, chaosOpts)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trip %d: rate-0 fault policy changed output\nplain: %v\nrate0: %v",
						trip.ID, summarize(want), summarize(got))
				}
			}
		})
	}
}

// equivalenceMethodByName builds the named method over a (possibly faulted)
// environment, reusing the equivalence harness's constructor table.
func equivalenceMethodByName(t *testing.T, env *cknn.Env, name string) cknn.Method {
	t.Helper()
	for _, mt := range equivalenceMethods(env) {
		if mt.name == name {
			return mt.build()
		}
	}
	t.Fatalf("unknown method %q", name)
	return nil
}

// TestChaosDegradedTablesValid drives every method at 10% and 30% fault
// rates and checks the survival contract: tables keep coming, stay totally
// ordered and structurally valid, and each entry's Degraded bitmask names
// exactly the components the policy failed.
func TestChaosDegradedTablesValid(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario builds are slow")
	}
	sc := chaosScenario(t)
	for _, rate := range []float64{0.1, 0.3} {
		rate := rate
		t.Run(rateName(rate), func(t *testing.T) {
			env := faultedEnv(sc.Env, rate, 42)
			policy := env.Faults
			degradedSeen := 0
			for _, mt := range equivalenceMethods(env) {
				mt := mt
				t.Run(mt.name, func(t *testing.T) {
					for _, ti := range chaosTrips(sc) {
						trip := sc.Trips[ti]
						for _, res := range cknn.RunTrip(env, mt.build(), trip, chaosOpts) {
							validateChaosTable(t, res.Table, chaosOpts.K, mt.name)
							if mt.name == "Random" {
								continue // Random never computes components
							}
							for _, e := range res.Table.Entries {
								deg := e.Comp.Degraded
								degradedSeen += degradedBits(deg)
								for _, comp := range []cknn.Component{cknn.CompL, cknn.CompA, cknn.CompD} {
									wantBit := !policy.FetchOK(comp, e.Charger.ID, trip.Depart)
									if deg.Has(comp) != wantBit {
										t.Fatalf("%s trip %d charger %d: Degraded bit %s = %v, policy says %v",
											mt.name, trip.ID, e.Charger.ID, comp, deg.Has(comp), wantBit)
									}
									if wantBit {
										iv := componentOf(e.Comp, comp)
										if iv.Min != 0 || iv.Max != 1 {
											t.Fatalf("%s trip %d charger %d: degraded %s is [%v,%v], want the ignorance bound [0,1]",
												mt.name, trip.ID, e.Charger.ID, comp, iv.Min, iv.Max)
										}
									}
								}
							}
						}
					}
				})
			}
			if degradedSeen == 0 {
				t.Fatalf("rate %s injected faults but no offered entry was ever tagged degraded", rateName(rate))
			}
		})
	}
}

func rateName(rate float64) string {
	if rate == 0.1 {
		return "10pct"
	}
	return "30pct"
}

func degradedBits(d cknn.Degraded) int {
	n := 0
	for _, c := range []cknn.Component{cknn.CompL, cknn.CompA, cknn.CompD} {
		if d.Has(c) {
			n++
		}
	}
	return n
}

func componentOf(c cknn.Components, comp cknn.Component) interval {
	switch comp {
	case cknn.CompL:
		return interval{c.L.Min, c.L.Max}
	case cknn.CompA:
		return interval{c.A.Min, c.A.Max}
	default:
		return interval{c.D.Min, c.D.Max}
	}
}

// interval avoids importing internal/interval just for bounds checks.
type interval struct{ Min, Max float64 }

// validateChaosTable asserts structural validity through the shared
// invariant harness; the Random baseline never computes scores, so only the
// structural half applies to it.
func validateChaosTable(t *testing.T, table cknn.OfferingTable, k int, method string) {
	t.Helper()
	tabletest.CheckOpts(t, table, k, method, tabletest.Options{SkipScores: method == "Random"})
}
