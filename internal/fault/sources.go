package fault

import (
	"time"

	"ecocharge/internal/cknn"
)

// DefaultBucket is the freshness granularity of source decisions: fetches
// issued within the same bucket observe the same outage realization, which
// models real feed outages (a weather API that is down stays down for
// minutes, not for one call) and keeps every query of a trip segment
// consistent.
const DefaultBucket = 5 * time.Minute

// SourcePolicy adapts an Injector to cknn.FaultPolicy: it fails component
// fetches deterministically per (component, charger, time bucket). It holds
// the purity contract the engine relies on — FetchOK is a pure function of
// its arguments between Advance calls on the injector — so prune bounds,
// evaluations, and the parallel filtering phase all see one consistent
// world.
type SourcePolicy struct {
	inj *Injector
	// bucket quantizes issue times; zero selects DefaultBucket.
	bucket time.Duration
}

// Sources wraps the injector as a component-fetch policy with the default
// freshness bucket.
func Sources(inj *Injector) *SourcePolicy { return SourcesBucketed(inj, DefaultBucket) }

// SourcesBucketed wraps the injector with an explicit freshness bucket.
func SourcesBucketed(inj *Injector, bucket time.Duration) *SourcePolicy {
	if bucket <= 0 {
		bucket = DefaultBucket
	}
	return &SourcePolicy{inj: inj, bucket: bucket}
}

// FetchOK implements cknn.FaultPolicy.
func (p *SourcePolicy) FetchOK(comp cknn.Component, chargerID int64, issued time.Time) bool {
	return !p.inj.Decide(saltSource, uint64(comp), uint64(chargerID), p.bucketOf(issued)).Fail
}

// bucketOf quantizes the issue time to the policy's freshness bucket. The
// logical timestamp comes from the query, never from the wall clock.
func (p *SourcePolicy) bucketOf(issued time.Time) uint64 {
	return uint64(issued.Unix() / int64(p.bucket/time.Second))
}

// saltSource namespaces component-fetch decisions away from the fleet's
// decisions sharing the same injector.
const saltSource uint64 = 0x50facade
