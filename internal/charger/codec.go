package charger

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/jsonfmt"
	"ecocharge/internal/roadnet"
)

// csvHeader is the column layout of the PlugShare-style CSV interchange
// format. Timetables are not part of the CSV (they are regenerated from
// the availability model's seed); JSON round-trips carry them in full.
var csvHeader = []string{"id", "lat", "lon", "node", "rate_kw", "panel_kw", "wind_kw", "plugs"}

// WriteCSV writes the set in the CSV interchange format.
func (s *Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, c := range s.chargers {
		rec := []string{
			strconv.FormatInt(c.ID, 10),
			strconv.FormatFloat(c.P.Lat, 'f', 6, 64),
			strconv.FormatFloat(c.P.Lon, 'f', 6, 64),
			strconv.Itoa(int(c.Node)),
			strconv.FormatFloat(c.Rate.KW(), 'f', 1, 64),
			strconv.FormatFloat(c.PanelKW, 'f', 1, 64),
			strconv.FormatFloat(c.WindKW, 'f', 1, 64),
			strconv.Itoa(c.Plugs),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the CSV interchange format. Rate classes are recovered
// from the nearest nominal kW value. Rows with malformed fields produce an
// error naming the offending line.
func ReadCSV(r io.Reader) ([]Charger, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("charger: reading CSV header: %w", err)
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("charger: CSV header column %d is %q, want %q", i, header[i], h)
		}
	}
	var out []Charger
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("charger: CSV line %d: %w", line, err)
		}
		c, err := parseCSVRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("charger: CSV line %d: %w", line, err)
		}
		out = append(out, c)
	}
	return out, nil
}

func parseCSVRecord(rec []string) (Charger, error) {
	var c Charger
	var err error
	if c.ID, err = strconv.ParseInt(rec[0], 10, 64); err != nil {
		return c, fmt.Errorf("id: %w", err)
	}
	if c.P.Lat, err = strconv.ParseFloat(rec[1], 64); err != nil {
		return c, fmt.Errorf("lat: %w", err)
	}
	if c.P.Lon, err = strconv.ParseFloat(rec[2], 64); err != nil {
		return c, fmt.Errorf("lon: %w", err)
	}
	if !c.P.Valid() {
		return c, fmt.Errorf("invalid coordinates %v", c.P)
	}
	node, err := strconv.Atoi(rec[3])
	if err != nil {
		return c, fmt.Errorf("node: %w", err)
	}
	c.Node = roadnet.NodeID(node)
	rateKW, err := strconv.ParseFloat(rec[4], 64)
	if err != nil {
		return c, fmt.Errorf("rate_kw: %w", err)
	}
	c.Rate = rateFromKW(rateKW)
	if c.PanelKW, err = strconv.ParseFloat(rec[5], 64); err != nil {
		return c, fmt.Errorf("panel_kw: %w", err)
	}
	if c.PanelKW < 0 {
		return c, fmt.Errorf("negative panel_kw %v", c.PanelKW)
	}
	if c.WindKW, err = strconv.ParseFloat(rec[6], 64); err != nil {
		return c, fmt.Errorf("wind_kw: %w", err)
	}
	if c.WindKW < 0 {
		return c, fmt.Errorf("negative wind_kw %v", c.WindKW)
	}
	if c.Plugs, err = strconv.Atoi(rec[7]); err != nil {
		return c, fmt.Errorf("plugs: %w", err)
	}
	return c, nil
}

// RateFromKW maps a nominal kW back to the nearest rate class. The binary
// wire codec (internal/wire) uses it so both interchange formats recover
// the class identically.
func RateFromKW(kw float64) RateClass { return rateFromKW(kw) }

// rateFromKW maps a nominal kW back to the nearest rate class.
func rateFromKW(kw float64) RateClass {
	best, bestDiff := RateAC11, 1e18
	for r := RateClass(0); r < numRateClasses; r++ {
		d := kw - r.KW()
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = r, d
		}
	}
	return best
}

// chargerJSON is the stable JSON shape of a charger, which AppendJSON writes
// and UnmarshalJSON reads; it decouples the wire format from internal field
// names.
type chargerJSON struct {
	ID        int64         `json:"id"`
	Lat       float64       `json:"lat"`
	Lon       float64       `json:"lon"`
	Node      int32         `json:"node"`
	RateKW    float64       `json:"rate_kw"`
	PanelKW   float64       `json:"panel_kw"`
	WindKW    float64       `json:"wind_kw"`
	Plugs     int           `json:"plugs"`
	Timetable *ec.Timetable `json:"timetable"`
}

// MarshalJSON implements json.Marshaler: AppendJSON's rendering, into one
// allocation of about a charger's size (jsonSize).
func (c Charger) MarshalJSON() ([]byte, error) { return AppendJSON(make([]byte, 0, jsonSize), &c) }

// jsonSize is about the length of a charger's JSON: 2.8 KB on average, and at
// most 3.0 KB, for the generated inventory, nearly all of it the timetable.
const jsonSize = 3 << 10

// AppendJSON appends c in its JSON shape (chargerJSON), byte for byte what
// encoding/json writes for it: the one renderer of a charger, for a list
// answer and for MarshalJSON. A nil timetable is written as the zero table's
// 168 zeros. A coordinate, capacity or timetable slot that is NaN or ±Inf is
// an error, as it is to encoding/json.
func AppendJSON(b []byte, c *Charger) ([]byte, error) {
	w := jsonfmt.Writer{B: b}
	w.Raw(`{"id":`)
	w.Int(c.ID)
	w.Raw(`,"lat":`)
	w.Float(c.P.Lat)
	w.Raw(`,"lon":`)
	w.Float(c.P.Lon)
	w.Raw(`,"node":`)
	w.Int(int64(int32(c.Node)))
	w.Raw(`,"rate_kw":`)
	w.Float(c.Rate.KW())
	w.Raw(`,"panel_kw":`)
	w.Float(c.PanelKW)
	w.Raw(`,"wind_kw":`)
	w.Float(c.WindKW)
	w.Raw(`,"plugs":`)
	w.Int(int64(c.Plugs))
	w.Raw(`,"timetable":[`)
	for d := 0; d < 7; d++ {
		if d > 0 {
			w.Raw(",")
		}
		w.Raw("[")
		for h := 0; h < 24; h++ {
			if h > 0 {
				w.Raw(",")
			}
			w.Float(c.Timetable.Slot(d, h))
		}
		w.Raw("]")
	}
	w.Raw("]}")
	return w.B, w.Err
}

// UnmarshalJSON implements json.Unmarshaler. The charger gets a table of its
// own, or none when the timetable is null or absent.
func (c *Charger) UnmarshalJSON(data []byte) error {
	var j chargerJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	p := geo.Point{Lat: j.Lat, Lon: j.Lon}
	if !p.Valid() {
		return fmt.Errorf("charger: invalid coordinates (%v, %v)", j.Lat, j.Lon)
	}
	*c = Charger{
		ID: j.ID, P: p, Node: roadnet.NodeID(j.Node),
		Rate: rateFromKW(j.RateKW), PanelKW: j.PanelKW, WindKW: j.WindKW, Plugs: j.Plugs,
		Timetable: j.Timetable,
	}
	return nil
}
