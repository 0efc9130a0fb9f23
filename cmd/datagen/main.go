// Command datagen materializes a dataset scenario to disk: the charger
// inventory (PlugShare-style CSV), the trip workload (CSV of node paths),
// and a CDGS-style 15-minute solar production series — the synthetic
// equivalents of the external data feeds the paper consumes.
//
// Example:
//
//	datagen -dataset Oldenburg -out ./data -production-days 2
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/experiment"
)

func main() {
	var (
		dataset = flag.String("dataset", "Oldenburg", "dataset profile: Oldenburg, California, T-drive, Geolife")
		scale   = flag.Float64("scale", 0.01, "trip-count scale")
		seed    = flag.Int64("seed", 42, "scenario seed")
		out     = flag.String("out", "data", "output directory")
		days    = flag.Int("production-days", 1, "days of 15-minute production samples")
	)
	flag.Parse()

	if err := run(*dataset, *scale, *seed, *out, *days); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, seed int64, out string, days int) error {
	sc, err := experiment.BuildScenario(dataset, scale, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	chargersPath := filepath.Join(out, "chargers.csv")
	if err := writeChargers(sc, chargersPath); err != nil {
		return err
	}
	fmt.Printf("wrote %d chargers to %s\n", sc.Env.Chargers.Len(), chargersPath)

	tripsPath := filepath.Join(out, "trips.csv")
	if err := writeTrips(sc, tripsPath); err != nil {
		return err
	}
	fmt.Printf("wrote %d trips to %s\n", len(sc.Trips), tripsPath)

	prodPath := filepath.Join(out, "production.csv")
	n, err := writeProduction(sc, prodPath, days)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d production samples to %s\n", n, prodPath)
	return nil
}

func writeChargers(sc *experiment.Scenario, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sc.Env.Chargers.WriteCSV(f); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func writeTrips(sc *experiment.Scenario, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"trip_id", "depart_utc", "length_m", "nodes"}); err != nil {
		return err
	}
	for _, trip := range sc.Trips {
		nodes := make([]byte, 0, len(trip.Path.Nodes)*6)
		for i, n := range trip.Path.Nodes {
			if i > 0 {
				nodes = append(nodes, ' ')
			}
			nodes = strconv.AppendInt(nodes, int64(n), 10)
		}
		rec := []string{
			strconv.FormatInt(trip.ID, 10),
			trip.Depart.UTC().Format(time.RFC3339),
			strconv.FormatFloat(trip.Path.Weight, 'f', 0, 64),
			string(nodes),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return f.Close()
}

func writeProduction(sc *experiment.Scenario, path string, days int) (int, error) {
	if days < 1 {
		days = 1
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"charger_id", "start_utc", "kw"}); err != nil {
		return 0, err
	}
	from := sc.Start.Truncate(24 * time.Hour)
	to := from.AddDate(0, 0, days)
	count := 0
	for i := range sc.Env.Chargers.All() {
		c := &sc.Env.Chargers.All()[i]
		for _, smp := range charger.ProductionSeries(sc.Env.Solar, c, from, to) {
			rec := []string{
				strconv.FormatInt(smp.ChargerID, 10),
				smp.Start.UTC().Format(time.RFC3339),
				strconv.FormatFloat(smp.KW, 'f', 3, 64),
			}
			if err := w.Write(rec); err != nil {
				return count, err
			}
			count++
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return count, err
	}
	return count, f.Close()
}
