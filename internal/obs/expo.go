package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WriteText renders every metric in a Prometheus-compatible text form:
// counters and gauges as single samples, histograms as cumulative
// <name>_bucket{le="..."} samples at the octave edges 2^k−1 ns (65.5 µs to
// 17.2 s, in seconds) plus <name>_sum in seconds and <name>_count. Output
// is sorted by metric name so the format is golden-file testable.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, r.gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.histograms) {
		h := r.histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		counts := h.expoCounts()
		for i, c := range counts[:len(counts)-1] {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(float64(expoEdge(i))/1e9), c); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, counts[len(counts)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(h.Sum()), name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Snapshot flattens the registry into name→value pairs: counters and
// gauges by name, histograms as <name>_count and <name>_sum. The repository
// benchmark (bench/) takes one before and one after a replay and reads the
// per-layer counters from their DeltaSnapshot.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
	}
	for name, h := range r.histograms {
		out[name+"_count"] = float64(h.Count())
		out[name+"_sum"] = h.Sum()
	}
	return out
}

// DeltaSnapshot subtracts before from after, keeping keys whose value
// changed plus gauges/new keys as-is; both maps are Snapshot outputs.
func DeltaSnapshot(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range after {
		//ecolint:ignore floateq exact snapshot comparison: unchanged metrics are bit-identical
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// Handler serves the text exposition (GET /metrics shape).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w) // client went away; nothing to do with the error
	})
}

// VarsHandler serves the Snapshot as JSON (the /debug/vars shape of the
// stdlib expvar package, without importing its global side effects).
func (r *Registry) VarsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot()) // client went away; nothing to do with the error
	})
}
