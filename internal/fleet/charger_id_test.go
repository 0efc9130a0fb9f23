package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"testing"

	"ecocharge/internal/eis"
	"ecocharge/internal/fault"
)

// TestFleetChargerIDIsAnInteger is eis.TestChargerIDIsAnInteger through the
// gateway: the charger parameter of the per-charger endpoints is a base-10
// integer, the gateway answers anything else with the status and the bytes of
// a single EIS, and it needs no live shard to do so — "7.9" no longer routes
// to the owner of charger 7, and "abc" no longer depends on shard 0 being up.
func TestFleetChargerIDIsAnInteger(t *testing.T) {
	const notInteger = `{"error":"parameter \"charger\" is not an integer charger ID"}` + "\n"
	const missing = `{"error":"missing parameter \"charger\""}` + "\n"
	id := func(h *fleetHarness) string { return fmt.Sprint(h.env.Chargers.All()[0].ID) }
	rejected := func(h *fleetHarness) map[string]string {
		return map[string]string{
			"":                    missing,
			id(h) + ".9":          notInteger,
			id(h) + ".0":          notInteger,
			"NaN":                 notInteger,
			"Inf":                 notInteger,
			"1e3":                 notInteger,
			"0x10":                notInteger,
			" " + id(h):           notInteger,
			"9223372036854775808": notInteger,
			"abc":                 notInteger,
		}
	}
	endpoints := []string{"/weather", "/availability"}

	t.Run("fault-free", func(t *testing.T) {
		h := newFleetHarness(t, harnessOpts{n: 3})
		for _, endpoint := range endpoints {
			for raw, body := range rejected(h) {
				pathq := eis.APIVersion + endpoint + "?charger=" + url.QueryEscape(raw)
				h.assertIdentical(pathq, http.MethodGet, pathq, nil)
				if gs, gb, _ := doReq(t, h.gwts.URL, http.MethodGet, pathq, nil); gs != http.StatusBadRequest || string(gb) != body {
					t.Errorf("%s: status %d body %q, want 400 %q", pathq, gs, gb, body)
				}
			}
			for _, raw := range []string{id(h), "+" + id(h), "00" + id(h), "999999", "-3"} {
				pathq := eis.APIVersion + endpoint + "?charger=" + url.QueryEscape(raw)
				h.assertIdentical(pathq, http.MethodGet, pathq, nil)
			}
		}
	})

	t.Run("every shard dark", func(t *testing.T) {
		h := newFleetHarness(t, harnessOpts{
			n: 2,
			shapes: func(hosts []string) map[string]fault.ShardShape {
				return map[string]fault.ShardShape{
					hosts[0]: {Blackouts: blackoutForever},
					hosts[1]: {Blackouts: blackoutForever},
				}
			},
		})
		h.gw.ProbeAll(context.Background()) // tick 0: healthy — inventories cached
		h.inj.Advance(1)
		for _, endpoint := range endpoints {
			for raw, body := range rejected(h) {
				pathq := eis.APIVersion + endpoint + "?charger=" + url.QueryEscape(raw)
				if gs, gb, _ := doReq(t, h.gwts.URL, http.MethodGet, pathq, nil); gs != http.StatusBadRequest || string(gb) != body {
					t.Errorf("%s: status %d body %q, want 400 %q", pathq, gs, gb, body)
				}
			}
			// An integer still gets the degraded answer of its dead owner.
			pathq := eis.APIVersion + endpoint + "?charger=" + id(h)
			if gs, _, gh := doReq(t, h.gwts.URL, http.MethodGet, pathq, nil); gs != http.StatusOK || gh.Get(degradedHeader) == "" {
				t.Errorf("%s: status %d degraded %q, want a degraded 200", pathq, gs, gh.Get(degradedHeader))
			}
		}
	})
}
