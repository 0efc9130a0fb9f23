package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext identifies a position in a trace: the trace the work belongs
// to and the span that is currently active. It crosses process boundaries
// through the X-Trace-Id/X-Span-Id headers.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

type spanCtxKey struct{}

// ContextWith returns ctx carrying sc; StartSpan on the result creates a
// child of sc.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// FromContext extracts the active span context, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// Propagation headers. IDs travel as fixed-width lowercase hex.
const (
	HeaderTraceID = "X-Trace-Id"
	HeaderSpanID  = "X-Span-Id"
)

// InjectHTTP stamps the active span context of ctx onto the headers; a
// ctx without a span leaves the headers untouched.
func InjectHTTP(ctx context.Context, h http.Header) {
	sc, ok := FromContext(ctx)
	if !ok {
		return
	}
	h.Set(HeaderTraceID, formatID(sc.TraceID))
	h.Set(HeaderSpanID, formatID(sc.SpanID))
}

// ExtractHTTP reads a propagated span context from request headers.
func ExtractHTTP(h http.Header) (SpanContext, bool) {
	trace, err1 := strconv.ParseUint(h.Get(HeaderTraceID), 16, 64)
	span, err2 := strconv.ParseUint(h.Get(HeaderSpanID), 16, 64)
	if err1 != nil || err2 != nil {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: trace, SpanID: span}
	return sc, sc.Valid()
}

func formatID(id uint64) string { return strconv.FormatUint(id, 16) }

// TracerOptions tune a Tracer. The zero value exports every span with the
// wall clock.
type TracerOptions struct {
	// SampleEvery exports one trace in SampleEvery (decided on the trace
	// ID, so a trace is exported whole or not at all). 0 and 1 export
	// everything.
	SampleEvery uint64
	// Seed decorrelates ID streams between tracers; equal seeds produce
	// equal ID sequences. A test seam: only the obs trace tests set it.
	Seed uint64
	// Clock stamps the spans; nil selects time.Now. A test seam: only the
	// obs trace tests set it.
	Clock func() time.Time
}

// Tracer creates spans and exports finished ones as JSON lines to its
// sink. A nil *Tracer is the disabled tracer: StartSpan returns the
// context unchanged and a nil span whose End is a no-op, so call sites
// never branch on configuration. Tracer methods are safe for concurrent
// use; the sink sees whole lines (writes are serialized).
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	every uint64
	clock func() time.Time
	seed  uint64
	ids   atomic.Uint64
}

// NewTracer returns a tracer exporting to w (nil discards).
func NewTracer(w io.Writer, opts TracerOptions) *Tracer {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	every := opts.SampleEvery
	if every == 0 {
		every = 1
	}
	return &Tracer{w: w, every: every, clock: clock, seed: opts.Seed}
}

// nextID returns a process-unique non-zero ID: splitmix64 over an atomic
// counter, seeded so concurrent tracers do not collide. No wall clock, no
// global PRNG — the sequence is deterministic per (seed, call order).
func (t *Tracer) nextID() uint64 {
	for {
		x := t.seed + t.ids.Add(1)*0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// Span is one timed operation inside a trace.
type Span struct {
	tracer   *Tracer
	name     string
	traceID  uint64
	spanID   uint64
	parentID uint64
	start    time.Time
}

// StartSpan opens a span named name. When ctx already carries a span
// context (local parent or one extracted from HTTP headers) the new span
// joins that trace as a child; otherwise it roots a fresh trace. The
// returned context carries the new span for further nesting.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := &Span{tracer: t, name: name, start: t.clock(), spanID: t.nextID()}
	if parent, ok := FromContext(ctx); ok {
		sp.traceID = parent.TraceID
		sp.parentID = parent.SpanID
	} else {
		sp.traceID = t.nextID()
	}
	return ContextWith(ctx, SpanContext{TraceID: sp.traceID, SpanID: sp.spanID}), sp
}

// Context returns the span's own context identifiers (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID}
}

// End closes the span and exports it if its trace is sampled. End is
// idempotent in effect only for nil spans; real spans must End exactly
// once.
func (s *Span) End() {
	if s == nil || s.tracer == nil {
		return
	}
	s.tracer.export(s, s.tracer.clock().Sub(s.start))
}

// SpanRecord is the JSON-line export form of one finished span. IDs are
// lowercase hex; Parent is empty for trace roots.
type SpanRecord struct {
	Trace  string    `json:"trace"`
	Span   string    `json:"span"`
	Parent string    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	DurNS  int64     `json:"dur_ns"`
}

func (t *Tracer) export(s *Span, dur time.Duration) {
	if t.w == nil || s.traceID%t.every != 0 {
		return
	}
	rec := SpanRecord{
		Trace: formatID(s.traceID),
		Span:  formatID(s.spanID),
		Name:  s.name,
		Start: s.start,
		DurNS: int64(dur),
	}
	if s.parentID != 0 {
		rec.Parent = formatID(s.parentID)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return // a span never breaks the traced operation
	}
	line = append(line, '\n')
	t.mu.Lock()
	_, _ = t.w.Write(line) // sink errors cannot fail the traced operation
	t.mu.Unlock()
}

// ParseSpanRecords decodes the JSON-line export (tests and offline
// tooling).
func ParseSpanRecords(data []byte) ([]SpanRecord, error) {
	var out []SpanRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}
