package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
)

// PrintFigure writes measurements as the text equivalent of one paper
// figure: one row per (dataset, method/config) with SC% and F_t as
// mean ± stddev.
func PrintFigure(w io.Writer, title string, ms []Measurement) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	// tabwriter buffers all writes; errors surface at the returned Flush.
	_, _ = fmt.Fprintln(tw, "dataset\tmethod\tconfig\tSC%\tFt(ms)\tqueries\tcache(h/m)")
	for _, m := range ms {
		cache := ""
		if m.CacheHits+m.CacheMiss > 0 {
			cache = fmt.Sprintf("%d/%d", m.CacheHits, m.CacheMiss)
		}
		_, _ = fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f ± %.1f\t%.2f ± %.2f\t%d\t%s\n",
			m.Dataset, m.Method, m.Config,
			m.SCPercent.Mean, m.SCPercent.StdDev,
			m.FtMillis.Mean, m.FtMillis.StdDev,
			m.Queries, cache)
	}
	return tw.Flush()
}

// PrintAblation writes Fig. 9 measurements including the achieved objective
// shares.
func PrintAblation(w io.Writer, title string, ms []Measurement) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	// tabwriter buffers all writes; errors surface at the returned Flush.
	_, _ = fmt.Fprintln(tw, "dataset\tfunction\tSC%\tw1(L)%\tw2(A)%\tw3(D)%\tFt(ms)")
	for _, m := range ms {
		_, _ = fmt.Fprintf(tw, "%s\t%s\t%.1f ± %.1f\t%.1f\t%.1f\t%.1f\t%.2f\n",
			m.Dataset, m.Method,
			m.SCPercent.Mean, m.SCPercent.StdDev,
			m.Shares.L*100, m.Shares.A*100, m.Shares.D*100,
			m.FtMillis.Mean)
	}
	return tw.Flush()
}

// WriteMeasurementsCSV exports measurements for external plotting.
func WriteMeasurementsCSV(w io.Writer, ms []Measurement) error {
	cw := csv.NewWriter(w)
	header := []string{
		"dataset", "method", "config",
		"sc_mean", "sc_stddev", "ft_ms_mean", "ft_ms_stddev",
		"queries", "cache_hits", "cache_misses",
		"share_l", "share_a", "share_d",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for _, m := range ms {
		rec := []string{
			m.Dataset, m.Method, m.Config,
			f(m.SCPercent.Mean), f(m.SCPercent.StdDev),
			f(m.FtMillis.Mean), f(m.FtMillis.StdDev),
			strconv.Itoa(m.Queries), strconv.Itoa(m.CacheHits), strconv.Itoa(m.CacheMiss),
			f(m.Shares.L), f(m.Shares.A), f(m.Shares.D),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
