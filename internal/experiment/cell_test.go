package experiment

import (
	"context"
	"testing"
	"time"

	"ecocharge/internal/stats"
)

// TestEcoChargeCellAgreesAcrossFigures holds the six series to one loop: the
// default EcoCharge cell (R = 50 km, Q = 5 km, equal weights, fresh
// forecasts) appears in every one of them, and each must report it with the
// same SC%, queries, cache counts and objective shares. Only F_t, the clock,
// may differ.
func TestEcoChargeCellAgreesAcrossFigures(t *testing.T) {
	sc := tinyScenario(t)
	cfg := tinyConfig()
	ctx := context.Background()
	pick := func(series string, ms []Measurement, err error, method string) Measurement {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", series, err)
		}
		for _, m := range ms {
			if m.Method == method {
				return m
			}
		}
		t.Fatalf("%s: no %s row in %v", series, method, ms)
		return Measurement{}
	}
	type cell struct {
		SCPercent                     stats.Summary
		Queries, CacheHits, CacheMiss int
		Shares                        ObjectiveShares
	}
	cellOf := func(m Measurement) cell {
		return cell{m.SCPercent, m.Queries, m.CacheHits, m.CacheMiss, m.Shares}
	}

	ms, err := RunPerformance(ctx, sc, cfg)
	want := cellOf(pick("Fig. 6", ms, err, "EcoCharge"))
	if want.Queries == 0 || want.CacheHits == 0 || want.Shares == (ObjectiveShares{}) {
		t.Errorf("Fig. 6 EcoCharge cell is empty: %+v", want)
	}
	rows := map[string]Measurement{}
	ms, err = RunROpt(ctx, sc, cfg, []float64{50})
	rows["Fig. 7 R=50km"] = pick("Fig. 7", ms, err, "EcoCharge")
	ms, err = RunQOpt(ctx, sc, cfg, []float64{5})
	rows["Fig. 8 Q=5km"] = pick("Fig. 8", ms, err, "EcoCharge")
	ms, err = RunAblation(ctx, sc, cfg)
	rows["Fig. 9 AWE"] = pick("Fig. 9", ms, err, "AWE")
	ms, err = RunHorizonSweep(ctx, sc, cfg, []time.Duration{0})
	rows["horizon=0s"] = pick("horizon", ms, err, "EcoCharge")
	ms, err = RunDesignAblation(ctx, sc, cfg)
	rows["design"] = pick("design", ms, err, "EcoCharge")
	for series, m := range rows {
		if got := cellOf(m); got != want {
			t.Errorf("%s reports the EcoCharge cell as\n%+v\nFig. 6 as\n%+v", series, got, want)
		}
	}
}
