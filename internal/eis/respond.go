package eis

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"ecocharge/internal/obs"
	"ecocharge/internal/wire"
)

// Every answer of the shard, the fleet gateway and Middleware is framed,
// typed and negotiated here, so the two servers cannot drift on answers.

// ContentTypeJSON is the canonical interchange format; wire.ContentType is
// the negotiated binary alternative for the hot-path payloads.
const ContentTypeJSON = "application/json"

// RetryAfter is the Retry-After header, in whole seconds, of every 503 that
// asks its caller to come back: a shed request, an expired wait, a fleet
// gateway with no live shard.
const RetryAfter = "1"

// errEncodeBody is the 500 body of an answer that does not marshal.
var errEncodeBody = []byte(`{"error":"encoding response"}` + "\n")

// WriteBody writes one fully-encoded response, the one place an answer
// reaches the ResponseWriter: Content-Length is known before the first byte
// hits the socket, so an encode failure can never truncate a 200 mid-body.
func WriteBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // client went away; nothing to do with the error
}

// WriteJSONStatus writes v, a cold body, as one JSON response under the
// status code; a payload that does not marshal becomes a 500, never a
// truncated 200.
func WriteJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	err := json.NewEncoder(buf).Encode(v)
	writeJSONBody(w, code, buf.B, err, &uncounted)
}

// WriteError writes msg as the JSON error body of an answer with the status
// code, whatever format the request negotiated: failure bodies are cold and
// must stay curl-readable. A 503 asks its caller to come back (RetryAfter).
func WriteError(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", RetryAfter)
	}
	WriteJSONStatus(w, code, ErrorResponse{Error: msg})
}

// Respond writes the 200 of r in the format r negotiated: enc appends the
// binary message of a payload the wire codec covers, js its JSON rendering
// (the wire package's JSON appenders), which is the default. m counts the
// encode's time and format: a shard passes its metrics, the fleet gateway,
// whose answers count nowhere, nil.
func Respond(w http.ResponseWriter, r *http.Request, m *eisMetrics, js func([]byte) ([]byte, error), enc func([]byte) []byte) {
	if m == nil {
		m = &uncounted
	}
	if enc == nil || !wire.Accepts(r.Header.Get("Accept")) {
		respondJSON(w, m, js)
		return
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	start := time.Now()
	buf.B = enc(buf.B)
	m.encodeWire.Since(start)
	m.respWire.Inc()
	WriteBody(w, http.StatusOK, wire.ContentType, buf.B)
}

// uncounted is metrics whose handles are all nil, which discard.
var uncounted eisMetrics

// respondJSON renders a 200's JSON with js into a pooled buffer and writes
// it, counted on m; a value js refuses is a 500, never a truncated 200.
func respondJSON(w http.ResponseWriter, m *eisMetrics, js func([]byte) ([]byte, error)) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	start := time.Now()
	var err error
	buf.B, err = js(buf.B)
	m.encodeJSON.Since(start)
	writeJSONBody(w, http.StatusOK, buf.B, err, m)
}

// writeJSONBody writes one encoded JSON answer, or the 500 of an encode that
// failed.
func writeJSONBody(w http.ResponseWriter, code int, body []byte, err error, m *eisMetrics) {
	if err != nil {
		WriteBody(w, http.StatusInternalServerError, ContentTypeJSON, errEncodeBody)
		return
	}
	m.respJSON.Inc()
	WriteBody(w, code, ContentTypeJSON, body)
}

// Instrument wraps an API handler with its duration histogram and, given a
// tracer, a server span named name that joins the caller's trace if the
// request carries X-Trace-Id/X-Span-Id headers.
func Instrument(tracer *obs.Tracer, name string, hist *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer hist.Since(start)
		if tracer != nil {
			ctx := r.Context()
			if sc, ok := obs.ExtractHTTP(r.Header); ok {
				ctx = obs.ContextWith(ctx, sc)
			}
			ctx, span := tracer.StartSpan(ctx, name)
			defer span.End()
			r = r.WithContext(ctx)
		}
		fn(w, r)
	}
}

// HandleOps registers a server's observability surface on mux: /metrics and
// /debug/vars over the process-wide default registry, and /healthz, whose
// answers state world (HeaderRoadWorld) when it is not empty.
func HandleOps(mux *http.ServeMux, world string) {
	mux.Handle("/metrics", obs.Default().Handler())
	mux.Handle("/debug/vars", obs.Default().VarsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if world != "" {
			w.Header().Set(HeaderRoadWorld, world)
		}
		WriteBody(w, http.StatusOK, "text/plain; charset=utf-8", []byte("ok\n"))
	})
}
