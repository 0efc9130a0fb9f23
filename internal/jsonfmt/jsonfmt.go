// Package jsonfmt writes JSON values the way encoding/json writes them, byte
// for byte, by appending to a byte slice: no reflection, no allocation. It
// holds the two rules an appender cannot copy from strconv alone — the float
// format and the time check — so the answer appenders of internal/wire and
// internal/charger share one copy of each.
package jsonfmt

import (
	"errors"
	"math"
	"strconv"
	"time"
)

// Writer appends one JSON document to B. Err is the first value
// encoding/json would have refused; once it is set, what B holds is not
// JSON, and the caller drops it.
type Writer struct {
	B   []byte
	Err error
}

// Raw appends s as it is: the keys and punctuation, which a caller writes
// already escaped.
func (w *Writer) Raw(s string) { w.B = append(w.B, s...) }

// Int appends an integer.
func (w *Writer) Int(v int64) { w.B = strconv.AppendInt(w.B, v, 10) }

// Bool appends true or false.
func (w *Writer) Bool(v bool) { w.B = strconv.AppendBool(w.B, v) }

var errFloat = errors.New("json: unsupported value: NaN or ±Inf")

// Float appends f as encoding/json writes a float64: the shortest decimal
// that reads back as f, in 'f' form for 1e-6 ≤ |f| < 1e21 and zero, else in
// 'e' form with a one-digit negative exponent unpadded (1e-7, not 1e-07).
// NaN and ±Inf, which JSON has no literal for, set Err.
func (w *Writer) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.fail(errFloat)
		return
	}
	abs := math.Abs(f)
	format := byte('f')
	//ecolint:ignore floateq encoding/json's own test: only an exact zero keeps 'f' below 1e-6
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.B = strconv.AppendFloat(w.B, f, format, -1, 64)
	if format == 'e' {
		if n := len(w.B); n >= 4 && w.B[n-4] == 'e' && w.B[n-3] == '-' && w.B[n-2] == '0' {
			w.B[n-2] = w.B[n-1]
			w.B = w.B[:n-1]
		}
	}
}

var (
	errYear = errors.New("Time.MarshalJSON: year outside of range [0,9999]")
	errZone = errors.New("Time.MarshalJSON: timezone hour outside of range [0,23]")
)

// Time appends t as time.Time.MarshalJSON writes it: RFC 3339 with
// nanoseconds, quoted. A year that is not four digits, or a zone offset of 24
// hours or more, sets Err, as MarshalJSON refuses them.
func (w *Writer) Time(t time.Time) {
	w.B = append(w.B, '"')
	start := len(w.B)
	w.B = t.AppendFormat(w.B, time.RFC3339Nano)
	s := w.B[start:]
	switch {
	case s[len("9999")] != '-':
		w.fail(errYear)
	case s[len(s)-1] != 'Z':
		c := s[len(s)-len("Z07:00")]
		h := s[len(s)-len("07:00"):]
		if '0' <= c && c <= '9' || 10*(h[0]-'0')+(h[1]-'0') >= 24 {
			w.fail(errZone)
		}
	}
	w.B = append(w.B, '"')
}

func (w *Writer) fail(err error) {
	if w.Err == nil {
		w.Err = err
	}
}
