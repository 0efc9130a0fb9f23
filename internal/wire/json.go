package wire

import (
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/jsonfmt"
)

// The JSON appenders: every answer type rendered field by field, in the
// order and shape of its JSON tags, so the JSON plane is a rendering of the
// wire types and not a second encoder. Each appends exactly what
// json.NewEncoder(w).Encode(v) writes for its value — the trailing newline,
// "null" for a nil slice and "[]" for an empty one included — and fails
// exactly where encoding/json refuses: a NaN or ±Inf float, a time whose
// year is not four digits or whose zone is 24 hours or more off UTC
// (FuzzAnswerJSON holds them to it). On an error what they appended is not
// JSON; the caller answers a 500 instead.

func appendIntervalJSON(w *jsonfmt.Writer, iv IntervalJSON) {
	w.Raw(`{"min":`)
	w.Float(iv.Min)
	w.Raw(`,"max":`)
	w.Float(iv.Max)
	w.Raw("}")
}

func appendEntriesJSON(w *jsonfmt.Writer, es []OfferingEntry) {
	if es == nil {
		w.Raw("null")
		return
	}
	w.Raw("[")
	for i := range es {
		e := &es[i]
		if i > 0 {
			w.Raw(",")
		}
		w.Raw(`{"charger_id":`)
		w.Int(e.ChargerID)
		w.Raw(`,"lat":`)
		w.Float(e.Lat)
		w.Raw(`,"lon":`)
		w.Float(e.Lon)
		w.Raw(`,"rate_kw":`)
		w.Float(e.RateKW)
		w.Raw(`,"sc":`)
		appendIntervalJSON(w, e.SC)
		w.Raw(`,"l":`)
		appendIntervalJSON(w, e.L)
		w.Raw(`,"a":`)
		appendIntervalJSON(w, e.A)
		w.Raw(`,"d":`)
		appendIntervalJSON(w, e.D)
		w.Raw(`,"eta":`)
		w.Time(e.ETA)
		if e.Degraded != 0 {
			w.Raw(`,"degraded":`)
			w.Int(int64(e.Degraded))
		}
		w.Raw("}")
	}
	w.Raw("]")
}

// AppendOfferingResponseJSON appends the JSON answer of a Mode 2 response.
func AppendOfferingResponseJSON(b []byte, resp *OfferingResponse) ([]byte, error) {
	w := jsonfmt.Writer{B: b}
	w.Raw(`{"entries":`)
	appendEntriesJSON(&w, resp.Entries)
	w.Raw(`,"generated_at":`)
	w.Time(resp.GeneratedAt)
	w.Raw(`,"cached":`)
	w.Bool(resp.Cached)
	w.Raw("}\n")
	return w.B, w.Err
}

// AppendTripResponseJSON appends the JSON answer of a whole-trip response.
func AppendTripResponseJSON(b []byte, resp *TripOfferingResponse) ([]byte, error) {
	w := jsonfmt.Writer{B: b}
	w.Raw(`{"trip_length_m":`)
	w.Float(resp.TripLengthM)
	w.Raw(`,"segments":`)
	if resp.Segments == nil {
		w.Raw("null")
	} else {
		w.Raw("[")
		for i := range resp.Segments {
			seg := &resp.Segments[i]
			if i > 0 {
				w.Raw(",")
			}
			w.Raw(`{"segment_index":`)
			w.Int(int64(seg.SegmentIndex))
			w.Raw(`,"anchor":{"lat":`)
			w.Float(seg.Anchor.Lat)
			w.Raw(`,"lon":`)
			w.Float(seg.Anchor.Lon)
			w.Raw(`},"eta":`)
			w.Time(seg.ETA)
			w.Raw(`,"length_m":`)
			w.Float(seg.LengthM)
			w.Raw(`,"adapted":`)
			w.Bool(seg.Adapted)
			w.Raw(`,"entries":`)
			appendEntriesJSON(&w, seg.Entries)
			w.Raw("}")
		}
		w.Raw("]")
	}
	w.Raw(`,"split_points":`)
	if resp.SplitPoints == nil {
		w.Raw("null")
	} else {
		w.Raw("[")
		for i, sp := range resp.SplitPoints {
			if i > 0 {
				w.Raw(",")
			}
			w.Int(int64(sp))
		}
		w.Raw("]")
	}
	w.Raw("}\n")
	return w.B, w.Err
}

// AppendChargerRefsJSON appends the JSON answer of a charger list, each
// charger rendered by charger.AppendJSON; a nil pointer is "null", as
// encoding/json writes it.
func AppendChargerRefsJSON(b []byte, cs []*charger.Charger) ([]byte, error) {
	if cs == nil {
		return append(b, "null\n"...), nil
	}
	b = append(b, '[')
	for i, c := range cs {
		if i > 0 {
			b = append(b, ',')
		}
		if c == nil {
			b = append(b, "null"...)
			continue
		}
		var err error
		if b, err = charger.AppendJSON(b, c); err != nil {
			return b, err
		}
	}
	return append(b, "]\n"...), nil
}

// AppendWeatherJSON appends the JSON answer of a production forecast.
func AppendWeatherJSON(b []byte, resp *WeatherResponse) ([]byte, error) {
	return appendPointJSON(b, resp.ChargerID, resp.At, `,"production_kw":`, resp.ProductionKW)
}

// AppendAvailabilityJSON appends the JSON answer of an availability
// estimate.
func AppendAvailabilityJSON(b []byte, resp *AvailabilityResponse) ([]byte, error) {
	return appendPointJSON(b, resp.ChargerID, resp.At, `,"availability":`, resp.Availability)
}

// appendPointJSON appends the shape the two per-charger estimates share: the
// charger, the time and the interval under key.
func appendPointJSON(b []byte, id int64, at time.Time, key string, iv IntervalJSON) ([]byte, error) {
	w := jsonfmt.Writer{B: b}
	w.Raw(`{"charger_id":`)
	w.Int(id)
	w.Raw(`,"at":`)
	w.Time(at)
	w.Raw(key)
	appendIntervalJSON(&w, iv)
	w.Raw("}\n")
	return w.B, w.Err
}
