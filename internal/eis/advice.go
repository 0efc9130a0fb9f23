package eis

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/smartgrid"
)

// AdviceRequest asks the EIS for a grid-aware Offering Table (the §VII
// smart-grid extension served centrally): the standard CkNN-EC ranking is
// re-ordered by the grid-aware score GS = SC − β·price − γ·stress.
type AdviceRequest struct {
	Lat     float64 `json:"lat"`
	Lon     float64 `json:"lon"`
	K       int     `json:"k"`
	RadiusM float64 `json:"radius_m"`
	// Now is when the estimate is issued; zero means server time.
	Now time.Time `json:"now"`
	// PriceWeight (β) and StressWeight (γ); zero selects the defaults.
	PriceWeight  float64 `json:"price_weight"`
	StressWeight float64 `json:"stress_weight"`
}

// AdviceEntry is one grid-aware recommendation.
type AdviceEntry struct {
	OfferingEntry
	GS     IntervalJSON `json:"gs"`
	Price  IntervalJSON `json:"price_eur_kwh"`
	Stress IntervalJSON `json:"grid_stress"`
	Band   string       `json:"tariff_band"`
}

// AdviceResponse is the grid-aware table.
type AdviceResponse struct {
	Entries     []AdviceEntry `json:"entries"`
	GeneratedAt time.Time     `json:"generated_at"`
}

// handleAdvice implements POST /api/v1/advice.
func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req AdviceRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	p := geo.Point{Lat: req.Lat, Lon: req.Lon}
	if !p.Valid() {
		s.writeError(w, http.StatusBadRequest, "invalid location (%v, %v)", req.Lat, req.Lon)
		return
	}
	if req.K <= 0 {
		req.K = 3
	}
	if req.RadiusM <= 0 {
		req.RadiusM = 50000
	}
	now := req.Now
	if now.IsZero() {
		now = s.opts.Clock()
	}
	node := s.env.Graph.NearestNode(p)
	if node == roadnet.Invalid {
		s.writeError(w, http.StatusUnprocessableEntity, "location not on the road network")
		return
	}
	table := cknn.RankOnce(s.env, cknn.EcoChargeOptions{RadiusM: req.RadiusM}, 0, cknn.Query{
		Anchor: p, AnchorNode: node, ReturnNode: node,
		Now: now, ETABase: now, K: req.K, RadiusM: req.RadiusM,
	})
	advisor := smartgrid.NewAdvisor(smartgrid.DefaultTariff(), smartgrid.NewGridSignal())
	if req.PriceWeight > 0 {
		advisor.PriceWeight = req.PriceWeight
	}
	if req.StressWeight > 0 {
		advisor.StressWeight = req.StressWeight
	}
	resp := AdviceResponse{GeneratedAt: now}
	for _, ad := range advisor.Advise(table, now) {
		resp.Entries = append(resp.Entries, AdviceEntry{
			OfferingEntry: OfferingEntry{
				ChargerID: ad.Entry.Charger.ID,
				Lat:       ad.Entry.Charger.P.Lat,
				Lon:       ad.Entry.Charger.P.Lon,
				RateKW:    ad.Entry.Charger.Rate.KW(),
				SC:        toWire(ad.Entry.SC),
				L:         toWire(ad.Entry.Comp.L),
				A:         toWire(ad.Entry.Comp.A),
				D:         toWire(ad.Entry.Comp.D),
				ETA:       ad.Entry.Comp.ETA,
			},
			GS:     toWire(ad.GS),
			Price:  toWire(ad.Price),
			Stress: toWire(ad.Stress),
			Band:   ad.Band.String(),
		})
	}
	WriteJSON(w, resp)
}

// Advice requests a grid-aware recommendation (client side).
func (c *Client) Advice(ctx context.Context, req AdviceRequest) (AdviceResponse, error) {
	var out AdviceResponse
	err := c.post(ctx, "/advice", req, &out)
	return out, err
}
