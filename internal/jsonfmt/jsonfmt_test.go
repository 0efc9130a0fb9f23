package jsonfmt

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestWriterIsEncodingJSON: every literal the writer appends is the one
// json.Marshal writes for the value, and the writer refuses exactly the
// values json.Marshal refuses, keeping the first refusal.
func TestWriterIsEncodingJSON(t *testing.T) {
	check := func(name string, w *Writer, v interface{}) {
		t.Helper()
		want, err := json.Marshal(v)
		if (w.Err == nil) != (err == nil) {
			t.Fatalf("%s: the writer says %v, encoding/json %v", name, w.Err, err)
		}
		if err == nil && !bytes.Equal(w.B, want) {
			t.Fatalf("%s: the writer appends %s, encoding/json writes %s", name, w.B, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-300, 5e-324,
		1e20, 1e21, -1e21, 123456789e15, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		w := Writer{}
		w.Float(f)
		check("float", &w, f)
	}
	for _, tm := range []time.Time{
		time.Date(2024, 6, 18, 9, 30, 0, 0, time.UTC),
		time.Date(2024, 6, 18, 9, 30, 0, 120, time.FixedZone("", 5*3600+45*60)),
		time.Date(2024, 6, 18, 9, 30, 0, 0, time.FixedZone("", -30*60-17)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(2024, 6, 18, 0, 0, 0, 0, time.FixedZone("", 23*3600+59*60)),
		time.Date(2024, 6, 18, 0, 0, 0, 0, time.FixedZone("", -24*3600)),
		time.Date(2024, 6, 18, 0, 0, 0, 0, time.FixedZone("", 100*3600)),
	} {
		w := Writer{}
		w.Time(tm)
		check("time "+tm.String(), &w, tm)
	}
	w := Writer{}
	w.Raw("[")
	w.Int(-42)
	w.Raw(",")
	w.Bool(true)
	w.Raw("]")
	check("int and bool", &w, []interface{}{-42, true})

	w = Writer{}
	w.Float(math.NaN())
	first := w.Err
	w.Time(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC))
	if w.Err != first {
		t.Fatalf("a later refusal replaced the first: %v", w.Err)
	}
}
