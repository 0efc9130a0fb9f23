package load

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// kneeFrac is the sustained-throughput criterion: a rate step "holds" when
// goodput (plus separately-accounted degraded answers) reaches this
// fraction of the offered rate. A plane's knee is the last step that holds
// before the first that does not; past it the server is saturated — offered
// load queues or sheds instead of completing.
const kneeFrac = 0.90

// holds reports whether the step sustained its offered rate.
func holds(r Result) bool {
	if r.Invalid > 0 {
		return false // contract violations disqualify a step outright
	}
	return (r.Goodput() + degradedRate(r)) >= kneeFrac*r.RateHz
}

func degradedRate(r Result) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Degraded) / r.Elapsed.Seconds()
}

// knee locates the knee of one plane's steps, given in sweep order: the
// index of the last step that held before the first that did not (-1 when
// the first step already failed), and whether any step failed. A sweep in
// which every step held never bracketed the knee.
func knee(steps []Result) (idx int, saturated bool) {
	for i, s := range steps {
		if !holds(s) {
			return i - 1, true
		}
	}
	return len(steps) - 1, false
}

// WriteReport renders the sweep as a fixed-width table, the shape the
// docs/perf.md "Load testing" section explains, followed by one knee line
// per plane. Steps of one plane are contiguous and in sweep order.
func WriteReport(w io.Writer, steps []Result) error {
	if _, err := fmt.Fprintf(w, "%-6s %-5s %-6s %8s %8s %8s %6s %6s %6s %9s %9s %9s %10s %6s\n",
		"plane", "mode", "rate", "offered", "valid", "degr", "shed", "inval", "errs",
		"p50", "p99", "p999", "goodput/s", "knee"); err != nil {
		return err
	}
	var knees []string
	for len(steps) > 0 {
		n := 1
		for n < len(steps) && steps[n].Plane == steps[0].Plane {
			n++
		}
		plane := steps[:n]
		steps = steps[n:]

		kneeIdx, saturated := knee(plane)
		verdict := "not reached: every step held, sweep higher rates"
		if saturated && kneeIdx < 0 {
			verdict = "not reached: the first step saturated, sweep lower rates"
		} else if saturated {
			verdict = fmt.Sprintf("%.0f req/s sustained with goodput %.1f/s", plane[kneeIdx].RateHz, plane[kneeIdx].Goodput())
		}
		knees = append(knees, fmt.Sprintf("knee (%s plane): %s", plane[0].Plane, verdict))
		for i, s := range plane {
			mark := ""
			if saturated && i == kneeIdx {
				mark = "<-- knee"
			} else if !holds(s) {
				mark = "sat"
			}
			if _, err := fmt.Fprintf(w, "%-6s %-5s %6.0f %8d %8d %8d %6d %6d %6d %9s %9s %9s %10.1f %6s\n",
				s.Plane, s.Mode, s.RateHz, s.Offered, s.Valid, s.Degraded, s.Shed, s.Invalid, s.Errors,
				fmtLat(s.Latency.Quantile(0.5)), fmtLat(s.Latency.Quantile(0.99)), fmtLat(s.Latency.Quantile(0.999)),
				s.Goodput(), mark); err != nil {
				return err
			}
			if s.FirstViolation != "" {
				if _, err := fmt.Fprintf(w, "       first violation: %s\n", s.FirstViolation); err != nil {
					return err
				}
			}
		}
	}
	_, err := fmt.Fprintf(w, "\n%s\n", strings.Join(knees, "\n"))
	return err
}

func fmtLat(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}
