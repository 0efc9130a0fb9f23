package load

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
)

// stallGate blocks every offering until `stall` after the first one arrived,
// then serves normally — an artificial server pause (GC, failover, lock
// convoy) of known length. The wait observes the request context. Other
// requests — the in-process gateway's probes and pulls, which reach the
// shard as soon as it starts — pass, so the pause starts with the run's
// first request, however long the run takes to get ready.
type stallGate struct {
	stall time.Duration
	once  sync.Once
	open  chan struct{}
}

func newStallGate(stall time.Duration) *stallGate {
	return &stallGate{stall: stall, open: make(chan struct{})}
}

func (g *stallGate) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != eis.APIVersion+"/offering" {
			next.ServeHTTP(w, r)
			return
		}
		g.once.Do(func() {
			time.AfterFunc(g.stall, func() { close(g.open) })
		})
		select {
		case <-g.open:
		case <-r.Context().Done():
			return
		}
		next.ServeHTTP(w, r)
	})
}

func stalledShard(t *testing.T, env *cknn.Env, stall time.Duration) string {
	t.Helper()
	ip, err := StartInproc(env, InprocOptions{
		Shards: 1,
		Clock:  func() time.Time { return fixedNow },
		Wrap:   newStallGate(stall).wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ip.Close)
	return ip.ShardURLs[0]
}

// TestCoordinatedOmissionSafety is the proof behind the harness's headline
// claim. A server stalls completely for 800 ms. The open-loop run measures
// every request from its *intended* arrival, so the requests that queued
// behind the stall record their full wait: the recorded p999 must reflect
// the stall. The closed-loop control run measures from actual send with a
// small worker pool — only `workers` requests ever experience the stall,
// the thousands issued after it are fast, and the recorded p999 collapses
// to service time. That gap IS coordinated omission: the closed-loop
// number silently drops the latency its own back-pressure created.
func TestCoordinatedOmissionSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second stall differential")
	}
	env := testEnv(t)
	const stall = 800 * time.Millisecond

	// Open loop: 400 arrivals over 1 s, all scheduled before or around the
	// stall's end, every queued wait measured — on both planes, whose bodies
	// are encoded before the step's clock starts, so that a send's window
	// opens at its intended arrival and holds the exchange alone.
	openSched, err := Constant(400, 400)
	if err != nil {
		t.Fatal(err)
	}
	var openRes Result // the JSON plane's, the closed loop's control
	for _, plane := range []Plane{PlaneWire, PlaneJSON} {
		openRunner, err := NewRunner(Options{
			BaseURL: stalledShard(t, env, stall), Plane: plane, K: 5, Now: fixedNow,
			Timeout: 10 * time.Second, Workers: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		if openRes, err = openRunner.Run(context.Background(), testSessions(t, env, 23), openSched, 400); err != nil {
			t.Fatal(err)
		}
		if openRes.Valid+openRes.Degraded != openRes.Offered {
			t.Fatalf("%s open-loop run not clean: %+v (first: %s)", plane, openRes, openRes.FirstViolation)
		}
		// Open loop saw the queue: requests intended early in the stall
		// waited most of it out and their wait is on the record.
		if p999 := openRes.Latency.Quantile(0.999); p999 < stall/2 {
			t.Fatalf("%s open-loop p999 %v does not reflect the %v stall: queued intended-start latency went unrecorded", plane, p999, stall)
		}
	}

	// Closed-loop control on a fresh stalled server: same stall, 4
	// sequential request loops, 6000 requests — only ~4 of them see the
	// stall, so the quantiles dilute.
	closedURL := stalledShard(t, env, stall)
	closedRunner, err := NewRunner(Options{
		BaseURL: closedURL, Plane: PlaneJSON, K: 5, Now: fixedNow,
		Timeout: 10 * time.Second, Workers: 4, ClosedLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	closedSched, err := Constant(400, 6000)
	if err != nil {
		t.Fatal(err)
	}
	closedRes, err := closedRunner.Run(context.Background(), testSessions(t, env, 23), closedSched, 400)
	if err != nil {
		t.Fatal(err)
	}
	if closedRes.Valid+closedRes.Degraded != closedRes.Offered {
		t.Fatalf("closed-loop run not clean: %+v (first: %s)", closedRes, closedRes.FirstViolation)
	}

	openP999 := openRes.Latency.Quantile(0.999)
	closedP999 := closedRes.Latency.Quantile(0.999)
	t.Logf("open-loop p50=%v p999=%v; closed-loop p50=%v p999=%v",
		openRes.Latency.Quantile(0.5), openP999, closedRes.Latency.Quantile(0.5), closedP999)

	// Closed loop hid it: the control's p999 collapses to service time.
	if closedP999 > openP999/4 {
		t.Fatalf("closed-loop p999 %v too close to open-loop %v — the control failed to demonstrate coordinated omission", closedP999, openP999)
	}
	if closedRes.MaxLat < stall/2 {
		t.Fatalf("closed-loop max %v never saw the stall — the gate did not engage", closedRes.MaxLat)
	}
}
