// Package geo provides the geodesic primitives used throughout EcoCharge:
// geographic points, great-circle and fast planar distances, destinations
// and bounding boxes.
//
// Coordinates are WGS84 degrees. Distances are meters unless stated
// otherwise. For the urban scales the paper targets (tens of kilometers)
// the equirectangular approximation is accurate to well under 0.1% and is
// the metric every caller uses; Haversine is the great-circle reference the
// tests hold Distance and Destination to.
package geo

import (
	"fmt"
	"math"
)

// EarthRadius is the mean Earth radius in meters (IUGG).
const EarthRadius = 6371008.8

// Point is a geographic location in degrees.
type Point struct {
	Lat float64 // latitude, degrees north
	Lon float64 // longitude, degrees east
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies in the legal WGS84 range.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// Radians returns the latitude and longitude in radians.
func (p Point) Radians() (lat, lon float64) {
	return p.Lat * math.Pi / 180, p.Lon * math.Pi / 180
}

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	lat1, lon1 := a.Radians()
	lat2, lon2 := b.Radians()
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	// Clamp against floating error before Asin.
	if s > 1 {
		s = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(s))
}

// Distance returns the equirectangular-approximation distance between a and
// b in meters. It is the default metric for urban-scale computation.
func Distance(a, b Point) float64 {
	lat1, lon1 := a.Radians()
	lat2, lon2 := b.Radians()
	x := (lon2 - lon1) * math.Cos((lat1+lat2)/2)
	y := lat2 - lat1
	return EarthRadius * math.Hypot(x, y)
}

// Destination returns the point reached by traveling dist meters from p on
// the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, dist float64) Point {
	lat1, lon1 := p.Radians()
	brg := bearingDeg * math.Pi / 180
	ad := dist / EarthRadius
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(brg))
	lon2 := lon1 + math.Atan2(
		math.Sin(brg)*math.Sin(ad)*math.Cos(lat1),
		math.Cos(ad)-math.Sin(lat1)*math.Sin(lat2),
	)
	return Point{Lat: lat2 * 180 / math.Pi, Lon: normalizeLonRad(lon2) * 180 / math.Pi}
}

func normalizeLonRad(lon float64) float64 {
	for lon > math.Pi {
		lon -= 2 * math.Pi
	}
	for lon < -math.Pi {
		lon += 2 * math.Pi
	}
	return lon
}
