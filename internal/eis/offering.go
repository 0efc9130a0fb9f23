package eis

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/geo"
)

// Offering is a Mode 2 request as the server ranks it: the decoded request
// with the server's defaults in place. The shard and the fleet gateway both
// get it from ResolveOffering, so they cannot disagree on what a request
// asks for.
type Offering struct {
	P       geo.Point
	K       int
	RadiusM float64
	// Weights are the client's, or the paper's equal weights when it sent
	// none; the ranking normalises them.
	Weights cknn.Weights
	// Now is when the estimate is issued, ETA the arrival at P.
	Now, ETA time.Time
}

// ResolveOffering applies the server's defaulting and validation to a decoded
// request; the error is the 400 a server answers with. clock supplies the
// issue time of a request that carries none, and is not called otherwise.
func ResolveOffering(req *OfferingRequest, clock func() time.Time) (Offering, error) {
	o := Offering{
		P: geo.Point{Lat: req.Lat, Lon: req.Lon}, K: req.K, RadiusM: req.RadiusM,
		Weights: cknn.Weights{L: req.Weights.L, A: req.Weights.A, D: req.Weights.D},
		Now:     req.Now, ETA: req.ETA,
	}
	if !o.P.Valid() {
		return o, fmt.Errorf("invalid location (%v, %v)", req.Lat, req.Lon)
	}
	if o.K <= 0 {
		o.K = 3
	}
	if o.RadiusM <= 0 {
		o.RadiusM = 50000
	}
	if o.Weights == (cknn.Weights{}) {
		o.Weights = cknn.EqualWeights()
	}
	if err := o.Weights.Validate(); err != nil {
		return o, err
	}
	if o.Now.IsZero() {
		o.Now = clock()
	}
	if o.ETA.IsZero() {
		o.ETA = o.Now
	}
	return o, nil
}

// cacheKey names one response-cache entry: the cell the request lands in
// and every parameter the table depends on. The weights are the ones the
// ranking uses — normalised — so {1,1,1}, {2,2,2} and no weights at all
// share the entry of the one table they all get.
type cacheKey struct {
	cellLat, cellLon int64
	k                int
	radiusM          int64
	weights          WeightsJSON
}

func offeringKey(cellM float64, o *Offering) cacheKey {
	cell := cellM / geo.EarthRadius * 180 / math.Pi // degrees
	w := o.Weights.Normalized()
	return cacheKey{
		cellLat: int64(math.Floor(o.P.Lat / cell)),
		cellLon: int64(math.Floor(o.P.Lon / cell)),
		k:       o.K,
		radiusM: int64(o.RadiusM),
		weights: WeightsJSON{L: w.L, A: w.A, D: w.D},
	}
}

// hash is FNV-1a over the key's fixed-width fields.
func (key cacheKey) hash() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, v := range [...]uint64{
		uint64(key.cellLat), uint64(key.cellLon),
		uint64(key.k), uint64(key.radiusM),
		math.Float64bits(key.weights.L),
		math.Float64bits(key.weights.A),
		math.Float64bits(key.weights.D),
	} {
		h ^= v
		h *= 1099511628211 // FNV-1a prime
	}
	return h
}

// CacheTerms is what a server's response cache keys and keeps entries by,
// and which road world its rankings search. A shard states them in headers of
// its /inventory answer; the fleet gateway, which pulls that answer anyway,
// learns from them which of its requests the shard will find cached.
type CacheTerms struct {
	CellM float64
	TTL   time.Duration
	// World is cknn.Env.RoadWorld of the server's environment.
	World uint64
}

const (
	headerCacheCell = "X-Eis-Cache-Cell-M"
	headerCacheTTL  = "X-Eis-Cache-Ttl"
	headerWorld     = "X-Eis-Road-World"
)

func (t CacheTerms) set(h http.Header) {
	h.Set(headerCacheCell, strconv.FormatFloat(t.CellM, 'g', -1, 64))
	h.Set(headerCacheTTL, t.TTL.String())
	h.Set(headerWorld, strconv.FormatUint(t.World, 16))
}

// CacheTermsFrom reads the terms a server stated in the headers of its
// /inventory answer; ok is false when it stated none it could have meant.
func CacheTermsFrom(h http.Header) (t CacheTerms, ok bool) {
	var err1, err2, err3 error
	t.CellM, err1 = strconv.ParseFloat(h.Get(headerCacheCell), 64)
	t.TTL, err2 = time.ParseDuration(h.Get(headerCacheTTL))
	t.World, err3 = strconv.ParseUint(h.Get(headerWorld), 16, 64)
	return t, err1 == nil && err2 == nil && err3 == nil && t.CellM > 0 && t.TTL > 0
}

// KeyHash is the hash of the response-cache key a server with these terms
// files the request under: the same function the server's own cache runs, so
// a gateway that remembers what it sent where cannot drift from it.
func (t CacheTerms) KeyHash(o *Offering) uint64 { return offeringKey(t.CellM, o).hash() }
