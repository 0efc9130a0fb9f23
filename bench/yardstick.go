package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
)

// The host this benchmark runs on is a few shared cores whose speed moves
// by a factor of two from one second to the next and stays off for minutes
// (README, "Steadiness"). A time measured on it says as much about the
// neighbours as about the program. The yardstick is the remedy: a stand-in
// for the fleet made of the standard library and of code in this file only,
// so no commit of the program can make it faster or slower. The closed loop
// runs it in short bursts between bursts of the workload, on the same
// cores, and every timing is reported relative to what the yardstick cost
// in the same moments.

// yardMix shapes one yardstick exchange like one request of a workload, so
// that the host's mood moves both by the same factor: the hot path (loopback
// HTTP, goroutine hand-offs) slows about twice as much as plain computing
// when a neighbour is busy, and a yardstick of the wrong kind would under-
// or over-correct.
type yardMix struct {
	// searches is how many shortest-path searches a back-end runs for an
	// exchange that "ranks", about as long as a shard ranks for the workload.
	searches int
	// garbageKB is the heap a back-end allocates, writes and drops for an
	// exchange that ranks, about what a shard allocates for the workload:
	// the collector's share of the work is the part a busy neighbour slows
	// most.
	garbageKB int
	// every makes each n-th exchange rank; 0 means none does.
	every int
	// jsonBodies makes the back-ends answer a JSON document of the size of a
	// trip answer, which the front decodes three times and encodes once.
	jsonBodies bool
	// nominal is what the yardstick measured when the committed baseline was
	// taken. Corrected timings are scaled by it, so they read as times on
	// that host; it has no other role.
	nominal yardCost
}

// yardCost is what yardstick exchanges cost with nproc callers back to back.
type yardCost struct {
	rps   float64 // exchanges per second
	cpuMS float64 // process CPU per exchange
	p50MS float64 // median exchange
}

// yardstick is the running stand-in: a front server that fans every
// exchange out to three back-ends over loopback HTTP, as the gateway does
// to its shards.
type yardstick struct {
	mix     yardMix
	front   *httptest.Server
	backs   []*httptest.Server
	client  *http.Client
	seq     atomic.Int64 // exchanges begun
	ranked  atomic.Int64 // back-end rankings begun
	garbage atomic.Pointer[[]int64]

	// The search kernel: a grid road network in adjacency-array form.
	first, to []int32
	cost      []float32
	scratch   sync.Pool // *yardScratch

	doc yardDoc
}

const (
	// The grid is yardSide x yardSide nodes, 2.5 MB of arrays: like the
	// engine's data it does not fit the cores' private caches. A search
	// settles yardSettle nodes, about a road-network expansion's worth.
	yardSide       = 256
	yardSettle     = 6400
	yardReplySize  = 587 // bytes of a wire-plane offering answer
	yardRankHeader = "X-Yard-Rank"
)

// yardBody is the request: the size of a wire-plane offering request.
var yardBody [64]byte

type yardScratch struct {
	dist []float32
	heap yardHeap
}

// yardDoc has the shape and size of a trip answer.
type yardDoc struct {
	Segments []yardSegment `json:"segments"`
}

type yardSegment struct {
	Index   int         `json:"index"`
	Lat     float64     `json:"lat"`
	Lon     float64     `json:"lon"`
	Entries []yardEntry `json:"entries"`
}

type yardEntry struct {
	ID   int64      `json:"id"`
	Name string     `json:"name"`
	SC   [2]float64 `json:"sc"`
	L    [2]float64 `json:"l"`
	A    [2]float64 `json:"a"`
	D    [2]float64 `json:"d"`
}

func newYardstick(mix yardMix) *yardstick {
	y := &yardstick{mix: mix}
	rng := rand.New(rand.NewSource(1))
	nodes := yardSide * yardSide
	y.first = make([]int32, nodes+1)
	for n := 0; n < nodes; n++ {
		r, c := n/yardSide, n%yardSide
		y.first[n] = int32(len(y.to))
		for _, d := range [4][2]int{{0, 1}, {1, 0}, {0, -1}, {-1, 0}} {
			rr, cc := r+d[0], c+d[1]
			if rr < 0 || cc < 0 || rr >= yardSide || cc >= yardSide {
				continue
			}
			y.to = append(y.to, int32(rr*yardSide+cc))
			y.cost = append(y.cost, 1+rng.Float32())
		}
	}
	y.first[nodes] = int32(len(y.to))
	y.scratch.New = func() interface{} { return &yardScratch{dist: make([]float32, nodes)} }

	for s := 0; s < 5; s++ {
		seg := yardSegment{Index: s, Lat: 53 + rng.Float64(), Lon: 8 + rng.Float64()}
		for e := 0; e < 5; e++ {
			pair := func() [2]float64 { return [2]float64{rng.Float64(), rng.Float64()} }
			seg.Entries = append(seg.Entries, yardEntry{
				ID: rng.Int63(), Name: "charging station", SC: pair(), L: pair(), A: pair(), D: pair(),
			})
		}
		y.doc.Segments = append(y.doc.Segments, seg)
	}

	// A failed read or write below only shortens the stand-in's work, and
	// exchange reports it: the errors are dropped on purpose.
	reply := bytes.Repeat([]byte{0x5A}, yardReplySize)
	back := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if r.Header.Get(yardRankHeader) != "" {
			sc := y.scratch.Get().(*yardScratch)
			n := int(y.ranked.Add(1))
			for i := 0; i < y.mix.searches; i++ {
				y.search(int32((n*7919+i*977)%nodes), sc) // all over the grid
			}
			y.scratch.Put(sc)
			for kb := 0; kb < y.mix.garbageKB; kb += 8 {
				g := make([]int64, 1024)
				for j := range g {
					g[j] = int64(j)
				}
				y.garbage.Store(&g) // escapes, so it is a heap allocation
			}
		}
		if y.mix.jsonBodies {
			_ = json.NewEncoder(w).Encode(&y.doc)
			return
		}
		_, _ = w.Write(reply)
	})
	for i := 0; i < shards; i++ {
		y.backs = append(y.backs, httptest.NewServer(back))
	}
	y.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}}
	y.front = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in, _ := io.ReadAll(r.Body)
		rank := r.Header.Get(yardRankHeader) != ""
		parts := make([][]byte, len(y.backs))
		var wg sync.WaitGroup
		for i, b := range y.backs {
			wg.Add(1)
			go func(i int, url string) {
				defer wg.Done()
				parts[i] = y.post(url, in, rank)
			}(i, b.URL)
		}
		wg.Wait()
		if !y.mix.jsonBodies {
			_, _ = w.Write(parts[0])
			return
		}
		var docs [shards]yardDoc
		for i, p := range parts {
			_ = json.Unmarshal(p, &docs[i])
		}
		_ = json.NewEncoder(w).Encode(&docs[0])
	}))
	return y
}

func (y *yardstick) close() {
	y.client.CloseIdleConnections()
	y.front.Close()
	for _, b := range y.backs {
		b.Close()
	}
}

// post sends one body and returns the whole answer, nil when the exchange
// failed.
func (y *yardstick) post(url string, body []byte, rank bool) []byte {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil
	}
	if rank {
		req.Header.Set(yardRankHeader, "1")
	}
	resp, err := y.client.Do(req)
	if err != nil {
		return nil
	}
	out, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // body fully read or the read error is reported below
	if err != nil {
		return nil
	}
	return out
}

// exchange is one request through the stand-in fleet; false when it failed.
func (y *yardstick) exchange() bool {
	rank := y.mix.every > 0 && y.seq.Add(1)%int64(y.mix.every) == 0
	return len(y.post(y.front.URL, yardBody[:], rank)) > 0
}

type yardHeapItem struct {
	node int32
	dist float32
}

// yardHeap is a binary min-heap on dist that stops allocating once grown.
type yardHeap []yardHeapItem

func (h *yardHeap) push(it yardHeapItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].dist <= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *yardHeap) pop() yardHeapItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && s[l].dist < s[m].dist {
			m = l
		}
		if r < n && s[r].dist < s[m].dist {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// search settles the yardSettle nodes nearest to src.
func (y *yardstick) search(src int32, sc *yardScratch) {
	for i := range sc.dist {
		sc.dist[i] = 1e30
	}
	sc.heap = sc.heap[:0]
	sc.dist[src] = 0
	sc.heap.push(yardHeapItem{src, 0})
	settled := 0
	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		if it.dist > sc.dist[it.node] {
			continue
		}
		if settled++; settled > yardSettle {
			break
		}
		for e := y.first[it.node]; e < y.first[it.node+1]; e++ {
			if d, t := it.dist+y.cost[e], y.to[e]; d < sc.dist[t] {
				sc.dist[t] = d
				sc.heap.push(yardHeapItem{t, d})
			}
		}
	}
}
