package geo

import "math"

// BBox is an axis-aligned bounding box in degrees. Min is the south-west
// corner, Max the north-east corner. Boxes never cross the antimeridian;
// the datasets in this work (Germany, California, Beijing) do not either.
type BBox struct {
	Min, Max Point
}

// NewBBox returns the bounding box of the given points. It panics on an
// empty argument list because a box of nothing has no meaningful value.
func NewBBox(pts ...Point) BBox {
	if len(pts) == 0 {
		panic("geo: NewBBox of no points")
	}
	b := BBox{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		b = b.Extend(p)
	}
	return b
}

// Extend returns the smallest box containing b and p.
func (b BBox) Extend(p Point) BBox {
	if p.Lat < b.Min.Lat {
		b.Min.Lat = p.Lat
	}
	if p.Lon < b.Min.Lon {
		b.Min.Lon = p.Lon
	}
	if p.Lat > b.Max.Lat {
		b.Max.Lat = p.Lat
	}
	if p.Lon > b.Max.Lon {
		b.Max.Lon = p.Lon
	}
	return b
}

// Union returns the smallest box containing both boxes.
func (b BBox) Union(o BBox) BBox {
	return b.Extend(o.Min).Extend(o.Max)
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.Min.Lat && p.Lat <= b.Max.Lat &&
		p.Lon >= b.Min.Lon && p.Lon <= b.Max.Lon
}

// Intersects reports whether the two boxes overlap (inclusive).
func (b BBox) Intersects(o BBox) bool {
	return b.Min.Lat <= o.Max.Lat && b.Max.Lat >= o.Min.Lat &&
		b.Min.Lon <= o.Max.Lon && b.Max.Lon >= o.Min.Lon
}

// Center returns the box center.
func (b BBox) Center() Point {
	return Point{Lat: (b.Min.Lat + b.Max.Lat) / 2, Lon: (b.Min.Lon + b.Max.Lon) / 2}
}

// Buffer returns the box grown by approximately dist meters on every side.
func (b BBox) Buffer(dist float64) BBox {
	dLat := dist / EarthRadius * 180 / math.Pi
	lat := b.Center().Lat * math.Pi / 180
	cos := math.Cos(lat)
	if cos < 1e-9 {
		cos = 1e-9
	}
	dLon := dLat / cos
	return BBox{
		Min: Point{Lat: b.Min.Lat - dLat, Lon: b.Min.Lon - dLon},
		Max: Point{Lat: b.Max.Lat + dLat, Lon: b.Max.Lon + dLon},
	}
}

// DistanceTo returns a lower bound, in meters, of Distance(p, x) over every
// point x of the box: zero when p is inside, and never above the distance to
// any point of the box, so an index may skip a box it reports as too far.
//
// Distance shrinks a longitude difference by the cosine of the mean latitude,
// which moves with x, so the nearest point is not the one clamping p into the
// box finds. This bound and MaxDistanceTo's take the smallest (largest)
// longitude difference, latitude difference and cosine the box allows, which
// no single point need attain: sound, not tight — loose costs an index a look
// inside the box, never an item.
func (b BBox) DistanceTo(p Point) float64 {
	lat, lon := p.Radians()
	s, w := b.Min.Radians()
	n, e := b.Max.Radians()
	latNear, _ := axisGaps(lat, s, n)
	lonNear, _ := axisGaps(lon, w, e)
	//ecolint:ignore floateq exact zero: p is due north or south of the box, or in it
	if lonNear == 0 {
		return EarthRadius * latNear * (1 - boundSlack) // no cosine to bound
	}
	_, meanFar := axisGaps(0, (lat+s)/2, (lat+n)/2)
	return EarthRadius * math.Hypot(lonNear*cosBound(meanFar, 0), latNear) * (1 - boundSlack)
}

// MaxDistanceTo returns an upper bound, in meters, of Distance(p, x) over
// every point x of the box, so an index may take a box whole that it reports
// as near enough. See DistanceTo.
func (b BBox) MaxDistanceTo(p Point) float64 {
	lat, lon := p.Radians()
	s, w := b.Min.Radians()
	n, e := b.Max.Radians()
	_, latFar := axisGaps(lat, s, n)
	_, lonFar := axisGaps(lon, w, e)
	meanNear, _ := axisGaps(0, (lat+s)/2, (lat+n)/2)
	return EarthRadius * math.Hypot(lonFar*cosBound(meanNear, 1), latFar) * (1 + boundSlack)
}

// boundSlack is the relative margin the bounds leave for the rounding of Cos
// and Hypot, a few units in the sixteenth place between them; every other
// step of Distance is monotone in floating point and is taken here the way
// Distance takes it.
const boundSlack = 1e-12

// cosBound is the cosine of a mean latitude that lies lat radians from the
// equator, the value that bounds the cosines of a box when lat is the nearest
// (farthest) its mean latitudes come to it. Past the poles the cosine no
// longer falls with lat and beyond is returned: 0 ≤ |cos| ≤ 1 is all that
// holds there.
func cosBound(lat, beyond float64) float64 {
	if lat > math.Pi/2 {
		return beyond
	}
	return math.Cos(lat)
}

// axisGaps returns the smallest and the largest |x − v| over x in [min, max].
func axisGaps(v, min, max float64) (near, far float64) {
	switch {
	case v < min:
		return min - v, max - v
	case v > max:
		return v - max, v - min
	}
	return 0, math.Max(v-min, max-v)
}

// WidthMeters and HeightMeters report the approximate physical extent of the box.
func (b BBox) WidthMeters() float64 {
	return Distance(Point{Lat: b.Center().Lat, Lon: b.Min.Lon}, Point{Lat: b.Center().Lat, Lon: b.Max.Lon})
}

// HeightMeters reports the approximate north-south extent of the box.
func (b BBox) HeightMeters() float64 {
	return Distance(Point{Lat: b.Min.Lat, Lon: b.Center().Lon}, Point{Lat: b.Max.Lat, Lon: b.Center().Lon})
}

// PointSegmentDistance returns the distance in meters from p to the segment
// ab, plus the fraction t in [0,1] of the projection along ab. It works in
// a local planar frame centered between a and b, which is accurate for the
// few-kilometer segments that trips are split into.
func PointSegmentDistance(p, a, b Point) (dist, t float64) {
	// Local planar coordinates (meters), equirectangular around a.
	latRef := a.Lat * math.Pi / 180
	cos := math.Cos(latRef)
	ax, ay := 0.0, 0.0
	bx := (b.Lon - a.Lon) * math.Pi / 180 * cos * EarthRadius
	by := (b.Lat - a.Lat) * math.Pi / 180 * EarthRadius
	px := (p.Lon - a.Lon) * math.Pi / 180 * cos * EarthRadius
	py := (p.Lat - a.Lat) * math.Pi / 180 * EarthRadius

	dx, dy := bx-ax, by-ay
	segLen2 := dx*dx + dy*dy
	if segLen2 <= 0 {
		return math.Hypot(px-ax, py-ay), 0
	}
	t = ((px-ax)*dx + (py-ay)*dy) / segLen2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	cx, cy := ax+t*dx, ay+t*dy
	return math.Hypot(px-cx, py-cy), t
}

// PolylineLength returns the summed segment lengths of the polyline in meters.
func PolylineLength(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += Distance(pts[i-1], pts[i])
	}
	return total
}
