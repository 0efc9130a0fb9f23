package roadnet

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ecocharge/internal/geo"
)

// The CSV interchange format mirrors what the paper's EIS ingests from
// OpenStreetMap extracts: one nodes table and one edges table. WriteCSV
// emits both into a single stream separated by a blank line; ReadCSV
// accepts that combined stream. The formats are:
//
//	nodes:  id,lat,lon
//	edges:  from,to,length_m,class
var (
	nodeHeader = []string{"id", "lat", "lon"}
	edgeHeader = []string{"from", "to", "length_m", "class"}
)

// WriteCSV serializes the graph (nodes table, blank line, edges table).
func (g *Graph) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(nodeHeader); err != nil {
		return err
	}
	for _, n := range g.nodes {
		rec := []string{
			strconv.Itoa(int(n.ID)),
			strconv.FormatFloat(n.P.Lat, 'f', 6, 64),
			strconv.FormatFloat(n.P.Lon, 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if _, err := bw.WriteString("\n"); err != nil {
		return err
	}
	cw = csv.NewWriter(bw)
	if err := cw.Write(edgeHeader); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		rec := []string{
			strconv.Itoa(int(e.From)),
			strconv.Itoa(int(e.To)),
			strconv.FormatFloat(e.Length, 'f', 1, 64),
			strconv.Itoa(int(e.Class)),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses the combined nodes+edges stream written by WriteCSV and
// returns a frozen graph. Node IDs must be dense 0..n-1 in order (the
// interchange contract); anything else is an error naming the line.
func ReadCSV(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1 // validated manually per section

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("roadnet: reading nodes header: %w", err)
	}
	if !headerEqual(header, nodeHeader) {
		return nil, fmt.Errorf("roadnet: bad nodes header %v", header)
	}
	g := NewGraph(0, 0)
	line := 1
	// Nodes section ends at the blank line, which encoding/csv reports by
	// skipping — so we detect the edges header instead.
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil, fmt.Errorf("roadnet: missing edges section")
		}
		if err != nil {
			return nil, fmt.Errorf("roadnet: nodes line %d: %w", line, err)
		}
		line++
		if headerEqual(rec, edgeHeader) {
			break
		}
		if len(rec) != len(nodeHeader) {
			return nil, fmt.Errorf("roadnet: nodes line %d: %d fields", line, len(rec))
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("roadnet: nodes line %d: id: %w", line, err)
		}
		if id != g.NumNodes() {
			return nil, fmt.Errorf("roadnet: nodes line %d: id %d out of order (want %d)", line, id, g.NumNodes())
		}
		lat, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("roadnet: nodes line %d: lat: %w", line, err)
		}
		lon, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("roadnet: nodes line %d: lon: %w", line, err)
		}
		p := geo.Point{Lat: lat, Lon: lon}
		if !p.Valid() {
			return nil, fmt.Errorf("roadnet: nodes line %d: invalid coordinates %v", line, p)
		}
		g.AddNode(p)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("roadnet: edges line %d: %w", line, err)
		}
		line++
		if len(rec) != len(edgeHeader) {
			return nil, fmt.Errorf("roadnet: edges line %d: %d fields", line, len(rec))
		}
		from, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("roadnet: edges line %d: from: %w", line, err)
		}
		to, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("roadnet: edges line %d: to: %w", line, err)
		}
		length, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("roadnet: edges line %d: length: %w", line, err)
		}
		class, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, fmt.Errorf("roadnet: edges line %d: class: %w", line, err)
		}
		if class < 0 || class >= int(numRoadClasses) {
			return nil, fmt.Errorf("roadnet: edges line %d: unknown class %d", line, class)
		}
		if from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() {
			return nil, fmt.Errorf("roadnet: edges line %d: edge %d->%d references missing node", line, from, to)
		}
		if length <= 0 {
			return nil, fmt.Errorf("roadnet: edges line %d: non-positive length %v", line, length)
		}
		g.AddEdge(NodeID(from), NodeID(to), length, RoadClass(class))
	}
	g.Freeze()
	return g, nil
}

func headerEqual(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
