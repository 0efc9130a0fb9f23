package load

import (
	"net/http"
	"strings"
	"testing"

	"ecocharge/internal/wire"
)

// TestClassifyContract pins the per-response contract table without a
// server: which (status, headers, body) shapes count as valid, degraded,
// shed, invalid, and error.
func TestClassifyContract(t *testing.T) {
	hdr := func(kv ...string) http.Header {
		h := http.Header{}
		for i := 0; i+1 < len(kv); i += 2 {
			h.Set(kv[i], kv[i+1])
		}
		return h
	}
	emptyTable := []byte(`{"generated_at":"2024-06-18T09:30:00Z","entries":[]}`)
	// Two entries misordered by SC: decodes fine, fails tabletest.
	misordered := []byte(`{"generated_at":"2024-06-18T09:30:00Z","entries":[` +
		`{"charger_id":1,"sc":{"min":0.1,"max":0.2},"l":{"min":0,"max":1},"a":{"min":0,"max":1},"d":{"min":0,"max":1}},` +
		`{"charger_id":2,"sc":{"min":0.8,"max":0.9},"l":{"min":0,"max":1},"a":{"min":0,"max":1},"d":{"min":0,"max":1}}]}`)
	// One entry whose SC bounds are crossed: the wire decoder takes it, the
	// check must not reorder it into a valid interval.
	unit := wire.IntervalJSON{Min: 0, Max: 1}
	crossed := wire.AppendOfferingResponse(nil, &wire.OfferingResponse{Entries: []wire.OfferingEntry{
		{ChargerID: 1, SC: wire.IntervalJSON{Min: 0.9, Max: 0.1}, L: unit, A: unit, D: unit},
	}})

	cases := []struct {
		name    string
		status  int
		header  http.Header
		body    []byte
		want    Outcome
		errFrag string
	}{
		{"valid empty table", 200, hdr(), emptyTable, OutcomeValid, ""},
		{"degraded header", 200, hdr(degradedHeader, "1"), emptyTable, OutcomeDegraded, ""},
		{"corrupt json", 200, hdr(), []byte(`{"entries":`), OutcomeInvalid, "JSON body corrupt"},
		{"corrupt wire", 200, hdr("Content-Type", "application/x-ecocharge-wire"), []byte{0xEC, 0xFF}, OutcomeInvalid, "wire body corrupt"},
		{"misordered table", 200, hdr(), misordered, OutcomeInvalid, ""},
		{"crossed interval", 200, hdr("Content-Type", wire.ContentType), crossed, OutcomeInvalid, "SC [0.9,0.1]"},
		{"shed with seconds", 503, hdr("Retry-After", "2"), nil, OutcomeShed, ""},
		{"shed without retry-after", 503, hdr(), nil, OutcomeInvalid, "Retry-After"},
		{"shed with garbage retry-after", 503, hdr("Retry-After", "soon"), nil, OutcomeInvalid, "Retry-After"},
		{"unexpected status", 418, hdr(), []byte("teapot"), OutcomeError, "unexpected status 418"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Classify(tc.status, tc.header, tc.body, 5)
			if got != tc.want {
				t.Fatalf("Classify=%v (%v), want %v", got, err, tc.want)
			}
			if tc.want == OutcomeValid || tc.want == OutcomeDegraded || tc.want == OutcomeShed {
				if err != nil {
					t.Fatalf("clean outcome carried error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("violation outcome carried no explanation")
			}
			if tc.errFrag != "" && !strings.Contains(err.Error(), tc.errFrag) {
				t.Fatalf("error %q lacks %q", err, tc.errFrag)
			}
		})
	}
}
