// Custom world: bring your own road network and charger inventory through
// the CSV codecs instead of the built-in generators — the workflow of an
// operator feeding EcoCharge an OpenStreetMap extract and a PlugShare
// export (paper §IV.B). The example writes a hand-crafted six-junction
// town to CSV, loads it back and ranks chargers in the loaded world.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/ec"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// A six-node town: a main street (0-1-2) with a bypass (3-4-5).
const graphCSV = `id,lat,lon
0,50.9400,6.9500
1,50.9400,6.9650
2,50.9400,6.9800
3,50.9300,6.9500
4,50.9300,6.9650
5,50.9300,6.9800

from,to,length_m,class
0,1,1100,1
1,0,1100,1
1,2,1100,1
2,1,1100,1
0,3,1200,0
3,0,1200,0
2,5,1200,0
5,2,1200,0
3,4,1150,2
4,3,1150,2
4,5,1150,2
5,4,1150,2
`

const chargersCSV = `id,lat,lon,node,rate_kw,panel_kw,wind_kw,plugs
1,50.9400,6.9650,1,22.0,30.0,0.0,2
2,50.9300,6.9650,4,50.0,80.0,20.0,4
3,50.9400,6.9800,2,11.0,0.0,0.0,1
`

func main() {
	// 1. Load the operator's CSVs.
	graph, err := roadnet.ReadCSV(strings.NewReader(graphCSV))
	if err != nil {
		log.Fatal(err)
	}
	rows, err := charger.ReadCSV(strings.NewReader(chargersCSV))
	if err != nil {
		log.Fatal(err)
	}
	// CSV carries no timetables: each charger points into one slab of
	// histograms regenerated from the availability model.
	avail := ec.NewAvailabilityModel(1)
	tables := make([]ec.Timetable, len(rows))
	for i := range rows {
		tables[i] = avail.GenerateTimetable(rows[i].ID)
		rows[i].Timetable = &tables[i]
	}
	set, err := charger.NewSet(rows)
	if err != nil {
		log.Fatal(err)
	}
	env, err := cknn.NewEnv(graph, set,
		ec.NewSolarModel(2), avail, ec.NewTrafficModel(3),
		cknn.EnvConfig{RadiusM: 5000, Wind: ec.NewWindModel(4)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded custom world: %d nodes, %d edges, %d chargers\n",
		graph.NumNodes(), graph.NumEdges(), set.Len())

	// 2. One trip across town and its Offering Table.
	depart := time.Date(2024, 6, 18, 10, 0, 0, 0, time.UTC)
	path, ok := graph.ShortestPath(0, 5, roadnet.DistanceWeight)
	if !ok {
		log.Fatal("town disconnected")
	}
	trip := trajectory.Trip{ID: 1, Path: path, Depart: depart}
	method := cknn.NewEcoCharge(env, cknn.EcoChargeOptions{RadiusM: 5000})
	results := cknn.RunTrip(env, method, trip, cknn.TripOptions{K: 3, SegmentLenM: 2000, RadiusM: 5000})
	fmt.Println("\nOffering Table at the first segment:")
	for i, e := range results[0].Table.Entries {
		fmt.Printf("  %d. charger %d (%s, %.0f kW solar + %.0f kW wind)  SC=%s\n",
			i+1, e.Charger.ID, e.Charger.Rate, e.Charger.PanelKW, e.Charger.WindKW, e.SC)
	}
}
