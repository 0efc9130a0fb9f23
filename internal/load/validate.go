package load

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/cknn/tabletest"
	"ecocharge/internal/eis"
	"ecocharge/internal/interval"
	"ecocharge/internal/wire"
)

// Outcome classifies one response for the goodput accounting.
type Outcome int

const (
	// OutcomeValid is a 200 whose table passes every tabletest invariant
	// and carries no degraded marker — the only bucket goodput counts.
	OutcomeValid Outcome = iota
	// OutcomeDegraded is a tabletest-valid 200 that carries degraded
	// entries or the X-Fleet-Degraded header: a correct answer computed
	// under partial knowledge. Accounted separately from goodput.
	OutcomeDegraded
	// OutcomeShed is a 503 with a parseable Retry-After — the documented
	// overload answer.
	OutcomeShed
	// OutcomeInvalid is a 200 whose body fails decoding or violates a
	// tabletest invariant, or a 503 without a parseable Retry-After: a
	// contract violation, never acceptable at any load.
	OutcomeInvalid
	// OutcomeError is a transport failure, timeout, or unexpected status.
	OutcomeError
	outcomeCount
)

func (o Outcome) String() string {
	switch o {
	case OutcomeValid:
		return "valid"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeShed:
		return "shed"
	case OutcomeInvalid:
		return "invalid"
	default:
		return "error"
	}
}

// degradedHeader is the gateway's partial-merge marker (fleet package).
const degradedHeader = "X-Fleet-Degraded"

// Classify validates one HTTP exchange against the overload contract:
// every response must be a tabletest-valid 200 or a 503 with parseable
// Retry-After; anything else is a violation. The returned error explains
// Invalid/Error outcomes for the contract suite's failure messages.
func Classify(status int, header http.Header, body []byte, k int) (Outcome, error) {
	switch status {
	case http.StatusOK:
		resp, err := decodeOffering(header.Get("Content-Type"), body)
		if err != nil {
			return OutcomeInvalid, err
		}
		if err := checkTable(resp, k); err != nil {
			return OutcomeInvalid, err
		}
		if isDegraded(header, resp) {
			return OutcomeDegraded, nil
		}
		return OutcomeValid, nil
	case http.StatusServiceUnavailable:
		if _, ok := eis.ParseRetryAfter(header.Get("Retry-After"), time.Now()); !ok {
			return OutcomeInvalid, fmt.Errorf("503 without parseable Retry-After (%q)", header.Get("Retry-After"))
		}
		return OutcomeShed, nil
	default:
		return OutcomeError, fmt.Errorf("unexpected status %d: %.200s", status, body)
	}
}

// decodeOffering parses the body by its Content-Type: binary wire frames
// or JSON, the same negotiation the servers perform.
func decodeOffering(contentType string, body []byte) (*wire.OfferingResponse, error) {
	var resp wire.OfferingResponse
	if wire.IsWire(contentType) {
		if err := wire.DecodeOfferingResponse(body, &resp); err != nil {
			return nil, fmt.Errorf("wire body corrupt: %w", err)
		}
		return &resp, nil
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("JSON body corrupt: %w", err)
	}
	return &resp, nil
}

// tableScratch is the storage checkTable rebuilds a table in: the stub
// chargers its entries point at (a charger.Charger is 1.4 KB, most of it the
// timetable) and the entries. Only the stubs' IDs are ever written, so a
// reused stub is as blank as a fresh one.
type tableScratch struct {
	stubs   []charger.Charger
	entries []cknn.Entry
}

var tableScratches = sync.Pool{New: func() interface{} { return new(tableScratch) }}

// maxPooledStubs caps the stubs a returned scratch may keep: one answer with
// a huge k must not pin megabytes in the pool.
const maxPooledStubs = 64

// checkTable rebuilds a cknn table from the response entries and runs the
// full tabletest invariant suite on it. The chargers are synthesized from
// the entry IDs — everything tabletest reads (IDs for duplicate detection
// and tie-breaks, score/component intervals, degraded bits) travels in the
// response, so the check needs no environment and works against any
// remote target.
func checkTable(resp *wire.OfferingResponse, k int) error {
	sc := tableScratches.Get().(*tableScratch)
	n := len(resp.Entries)
	if cap(sc.stubs) < n {
		sc.stubs, sc.entries = make([]charger.Charger, n), make([]cknn.Entry, n)
	}
	stubs, entries := sc.stubs[:n], sc.entries[:n]
	for i, e := range resp.Entries {
		stubs[i].ID = e.ChargerID
		entries[i] = cknn.Entry{
			Charger: &stubs[i],
			SC:      interval.FromBounds(e.SC.Min, e.SC.Max),
			Comp: cknn.Components{
				L: e.L.Interval(), A: e.A.Interval(), D: e.D.Interval(),
				Degraded: cknn.Degraded(e.Degraded),
			},
		}
	}
	err := tabletest.Err(cknn.OfferingTable{GeneratedAt: resp.GeneratedAt, Entries: entries}, k, tabletest.Options{})
	if cap(sc.stubs) <= maxPooledStubs {
		tableScratches.Put(sc)
	}
	return err
}

// isDegraded reports whether the response carries any degraded marker:
// the gateway's partial-merge header or per-entry degraded bits.
func isDegraded(header http.Header, resp *wire.OfferingResponse) bool {
	if header.Get(degradedHeader) != "" {
		return true
	}
	for _, e := range resp.Entries {
		if e.Degraded != 0 {
			return true
		}
	}
	return false
}
