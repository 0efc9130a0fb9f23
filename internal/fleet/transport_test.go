package fleet

// The gateway's shard hop (transport.go) against real servers: what it
// sends, what it keeps, what it closes, and what it tells its caller.
// Connections are counted where the server accepts them.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecocharge/internal/wire"
)

// countingServer is an httptest server that counts the connections it
// accepts.
type countingServer struct {
	*httptest.Server
	accepted atomic.Int64
}

func newCountingServer(t *testing.T, h http.HandlerFunc) *countingServer {
	t.Helper()
	s := &countingServer{Server: httptest.NewUnstartedServer(h)}
	s.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			s.accepted.Add(1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// hopTo runs one exchange of c with the server at base on tr — its send,
// then its receive, under ctx's deadline and a cancellation hook on ctx, as
// Gateway.attempt runs one — and returns the answer.
func hopTo(ctx context.Context, tr *shardTransport, base string, c call) (int, answerHeader, string, error) {
	tg, err := newTarget(base)
	if err != nil {
		return 0, answerHeader{}, "", err
	}
	var hook cancelHook
	hook.arm(ctx)
	defer hook.disarm()
	x := exchange{ctx: ctx, hook: &hook, t: tg, c: &c, buf: wire.GetBuffer()}
	defer wire.PutBuffer(x.buf)
	x.deadline, _ = ctx.Deadline()
	if err := tr.send(&x); err != nil {
		return 0, answerHeader{}, "", err
	}
	status, header, err := tr.receive(&x)
	return status, header, string(x.buf.B), err
}

// idleTo is how many idle connections tr holds to the server.
func (tr *shardTransport) idleTo(url string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.idle[strings.TrimPrefix(url, "http://")])
}

// TestFleetTransportKeepAlive: sequential exchanges, GET and POST, share one
// connection; the request goes out whole, with the head its endpoint was
// built with, and the answer's header fields are read in any case.
func TestFleetTransportKeepAlive(t *testing.T) {
	srv := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Header()["x-eis-road-world"] = []string{"ec0"} // a key the server does not canonicalise
		_, _ = w.Write([]byte(strings.Join([]string{r.Method, r.Host, r.URL.RequestURI(), r.Header.Get("Content-Type"), r.Header.Get("Accept"), string(b)}, " ")))
	})
	host := strings.TrimPrefix(srv.URL, "http://")
	tr := newShardTransport()
	for i := 0; i < 5; i++ {
		status, header, body, err := hopTo(context.Background(), tr, srv.URL, call{ep: epHealthz})
		if want := "GET " + host + " /healthz   "; err != nil || status != http.StatusOK || body != want {
			t.Fatalf("GET %d: %d %q, %v; want %q", i, status, body, err, want)
		}
		if header.world != 0xec0 {
			t.Fatalf("a header key in another case was not read: %+v", header)
		}
		status, header, body, err = hopTo(context.Background(), tr, srv.URL, call{ep: epOffering, body: []byte("payload")})
		want := "POST " + host + " /api/v1/offering " + wire.ContentType + " " + wire.ContentType + " payload"
		if err != nil || status != http.StatusOK || body != want || header.contentLength != int64(len(body)) {
			t.Fatalf("POST %d: %d %q (Content-Length %d), %v; want %q", i, status, body, header.contentLength, err, want)
		}
	}
	if n := srv.accepted.Load(); n != 1 {
		t.Fatalf("ten sequential exchanges opened %d connections, want 1", n)
	}
	if n := tr.idleTo(srv.URL); n != 1 {
		t.Fatalf("%d idle connections, want 1", n)
	}
}

// TestFleetTransportRetriesStaleConnection: a shard closes its first two
// connections after one answer each and its third before any. A
// pooled connection the shard has closed is retried once on a fresh one; a
// fresh connection that fails is not retried at all.
func TestFleetTransportRetriesStaleConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if accepted.Add(1) <= 2 {
				if _, err := http.ReadRequest(bufio.NewReader(c)); err == nil {
					_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
				}
			}
			_ = c.Close()
		}
	}()
	t.Cleanup(func() { _ = ln.Close(); wg.Wait() })

	url := "http://" + ln.Addr().String()
	tr := newShardTransport()
	if _, _, body, err := hopTo(context.Background(), tr, url, call{ep: epHealthz}); err != nil || body != "ok" {
		t.Fatalf("first exchange: %q, %v", body, err)
	}
	// The connection went back to the pool before the shard closed it.
	if _, _, body, err := hopTo(context.Background(), tr, url, call{ep: epOffering, body: []byte("again")}); err != nil || body != "ok" {
		t.Fatalf("exchange on a closed pooled connection: %q, %v", body, err)
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("%d connections after one stale retry, want 2", n)
	}
	if _, _, _, err := hopTo(context.Background(), tr, url, call{ep: epHealthz}); err == nil {
		t.Fatal("an exchange the shard never answered succeeded")
	}
	// The stale pooled connection and exactly one fresh one: a second retry
	// would have had the shard accept, and close, a fourth.
	if n := accepted.Load(); n != 3 {
		t.Fatalf("%d connections after a failed retry, want 3", n)
	}
}

// TestFleetTransportChunkedBody: an answer that arrives in parts, its length
// declared, is read whole, and its connection serves the next exchange.
func TestFleetTransportChunkedBody(t *testing.T) {
	srv := newCountingServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "5004")
		_, _ = w.Write([]byte(strings.Repeat("a", 5000)))
		w.(http.Flusher).Flush()
		_, _ = w.Write([]byte("tail"))
	})
	tr := newShardTransport()
	for i := 0; i < 3; i++ {
		status, header, body, err := hopTo(context.Background(), tr, srv.URL, call{ep: epHealthz})
		if err != nil || status != http.StatusOK || body != strings.Repeat("a", 5000)+"tail" {
			t.Fatalf("body in parts %d: %d, %d bytes, %v", i, status, len(body), err)
		}
		if header.contentLength != 5004 {
			t.Fatalf("framing: %+v", header)
		}
	}
	// The body was read to its length, so the connection served all three.
	if n := srv.accepted.Load(); n != 1 {
		t.Fatalf("three answers in parts opened %d connections, want 1", n)
	}
}

// TestFleetTransportRefusesUnframedAnswers: an answer framed otherwise than
// by Content-Length — chunked, ended by the connection, behind a 1xx, or
// chunked beside a length — fails its exchange as a malformed shard answer,
// and its connection is closed, not pooled.
func TestFleetTransportRefusesUnframedAnswers(t *testing.T) {
	for name, answer := range map[string]string{
		"chunked":  "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"unframed": "HTTP/1.1 200 OK\r\n\r\nok",
		"interim":  "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"both":     "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				_ = c.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := http.ReadRequest(bufio.NewReader(c)); err == nil {
					_, _ = io.WriteString(c, answer)
				}
				// Until the gateway closes its end, or the deadline.
				_, _ = io.Copy(io.Discard, c)
			}()
			defer func() { _ = ln.Close(); <-closed }()

			url := "http://" + ln.Addr().String()
			tr := newShardTransport()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, _, body, err := hopTo(ctx, tr, url, call{ep: epHealthz})
			if err == nil || !strings.Contains(err.Error(), "malformed shard answer") {
				t.Fatalf("the answer gave %q, %v; want a malformed shard answer", body, err)
			}
			if n := tr.idleTo(url); n != 0 {
				t.Fatalf("a refused answer's connection was pooled (%d idle)", n)
			}
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("the shard never saw the connection close")
			}
		})
	}
}

// TestFleetTransportConnectionClose: a connection whose answer says
// Connection: close is not pooled.
func TestFleetTransportConnectionClose(t *testing.T) {
	var requests atomic.Int64
	srv := newCountingServer(t, func(w http.ResponseWriter, _ *http.Request) {
		requests.Add(1)
		w.Header().Set("Connection", "close")
		_, _ = w.Write([]byte("bye"))
	})
	tr := newShardTransport()
	for i := 0; i < 2; i++ {
		_, header, body, err := hopTo(context.Background(), tr, srv.URL, call{ep: epHealthz})
		if err != nil || body != "bye" || !header.close {
			t.Fatalf("exchange %d: %q, Connection: close %v, %v", i, body, header.close, err)
		}
		if n := tr.idleTo(srv.URL); n != 0 {
			t.Fatalf("a connection the shard closes was pooled (%d idle)", n)
		}
	}
	// Two connections and no retry: the closed one was never reused.
	if n, r := srv.accepted.Load(), requests.Load(); n != 2 || r != 2 {
		t.Fatalf("%d connections and %d requests, want 2 and 2", n, r)
	}
}

// TestFleetTransportOversizedBody: an answer that declares more than
// maxShardResponseBytes fails the attempt before its body is read, and its
// connection is not pooled.
func TestFleetTransportOversizedBody(t *testing.T) {
	srv := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_, _ = w.Write([]byte("ok"))
			return
		}
		w.Header().Set("Content-Length", "33554433") // maxShardResponseBytes + 1
		_, _ = w.Write(make([]byte, 1<<10))
	})
	g, err := NewGateway([]Shard{{URL: srv.URL}}, testEnv(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if maxShardResponseBytes != 33554432 {
		t.Fatalf("the test's Content-Length is not one over the limit of %d", maxShardResponseBytes)
	}
	ctx := context.Background()
	res := g.attempt(ctx, g.members[0].primary, &call{ep: epOffering})
	if res.err == nil || !strings.Contains(res.err.Error(), "exceeds") {
		t.Fatalf("an oversized answer gave %v", res.err)
	}
	res = g.attempt(ctx, g.members[0].primary, &call{ep: epHealthz})
	defer res.release()
	if !res.ok() || string(res.body) != "ok" {
		t.Fatalf("the next exchange: %d %q, %v", res.status, res.body, res.err)
	}
	if n := srv.accepted.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: the oversized answer's was not to be reused", n)
	}
}

// TestFleetTransportCancelMidBody: a losing hedge is cancelled while it
// reads the body; the exchange returns at once with the context's error,
// and the connection is closed — the shard sees it go — not pooled.
func TestFleetTransportCancelMidBody(t *testing.T) {
	flushed, gone := make(chan struct{}), make(chan struct{})
	srv := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_, _ = w.Write([]byte("ok"))
			return
		}
		w.Header().Set("Content-Length", "100")
		_, _ = w.Write([]byte("first part"))
		w.(http.Flusher).Flush()
		close(flushed)
		<-r.Context().Done()
		close(gone)
	})
	tr := newShardTransport()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := hopTo(ctx, tr, srv.URL, call{ep: epOffering})
		done <- err
	}()
	<-flushed
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the cancelled exchange returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the cancelled exchange did not return")
	}
	if n := tr.idleTo(srv.URL); n != 0 {
		t.Fatalf("a cancelled connection was pooled (%d idle)", n)
	}
	select {
	case <-gone:
	case <-time.After(5 * time.Second):
		t.Fatal("the shard never saw the connection close")
	}
	if _, _, body, err := hopTo(context.Background(), tr, srv.URL, call{ep: epHealthz}); err != nil || body != "ok" {
		t.Fatalf("the next exchange: %q, %v", body, err)
	}
	if n := srv.accepted.Load(); n != 2 {
		t.Fatalf("%d connections, want 2", n)
	}
}

// TestFleetTransportDeadline: an exchange that outlives its context's
// deadline fails with context.DeadlineExceeded, waiting for the head or in
// the middle of the body.
func TestFleetTransportDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == endpointPaths[epTrip] {
			w.Header().Set("Content-Length", "8")
			_, _ = w.Write([]byte("part"))
			w.(http.Flusher).Flush()
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	defer close(release)
	tr := newShardTransport()
	const timeout = 50 * time.Millisecond
	for _, ep := range []endpoint{epOffering, epTrip} {
		path := endpointPaths[ep]
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		start := time.Now()
		_, _, _, err := hopTo(ctx, tr, srv.URL, call{ep: ep})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: a hung shard gave %v, want context.DeadlineExceeded", path, err)
		}
		if d := time.Since(start); d < timeout || d > timeout+2*time.Second {
			t.Fatalf("%s: the exchange ended after %v with a %v deadline", path, d, timeout)
		}
	}
	if n := tr.idleTo(srv.URL); n != 0 {
		t.Fatalf("a connection past its deadline was pooled (%d idle)", n)
	}
}

// TestFleetTransportReadsWhatArrivedPastDeadline: a fan-out reads its
// answers in shard order, so it may come to one only after the deadline.
// Then an answer that has begun to arrive is read to its end under
// lateAnswerBound, and the connection pooled: a whole small one, and one of
// two megabytes, of which the socket buffers held only the start when
// the deadline passed. Half an answer that stops, or none, fails with
// context.DeadlineExceeded, and its connection is closed.
func TestFleetTransportReadsWhatArrivedPastDeadline(t *testing.T) {
	large := strings.Repeat("x", 2<<20)
	release := make(chan struct{})
	srv := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		switch {
		case r.URL.Path == endpointPaths[epHealthz]:
			_, _ = w.Write([]byte("ok"))
			return
		case string(b) == "large":
			w.Header().Set("Content-Length", strconv.Itoa(len(large)))
			_, _ = w.Write([]byte(large))
			return
		case string(b) == "part":
			w.Header().Set("Content-Length", "8")
			_, _ = w.Write([]byte("part"))
			w.(http.Flusher).Flush()
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	defer close(release)
	tr := newShardTransport()
	tg, err := newTarget(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ep   endpoint
		ask  string // the request body, which the server answers by
		want string // the body; "" for an answer that fails
	}{{epHealthz, "", "ok"}, {epOffering, "large", large}, {epOffering, "part", ""}, {epTrip, "", ""}} {
		c := call{ep: tc.ep}
		if tc.ask != "" {
			c.body = []byte(tc.ask)
		}
		label := endpointPaths[tc.ep] + " " + tc.ask
		x := exchange{ctx: context.Background(), deadline: time.Now().Add(100 * time.Millisecond), t: tg, c: &c, buf: wire.GetBuffer()}
		if err := tr.send(&x); err != nil {
			t.Fatalf("%s: send: %v", label, err)
		}
		time.Sleep(time.Until(x.deadline) + 50*time.Millisecond)
		done := make(chan error, 1)
		var body string
		go func() {
			_, _, err := tr.receive(&x)
			body = string(x.buf.B)
			done <- err
		}()
		select {
		case err := <-done:
			if tc.want != "" && (err != nil || body != tc.want) {
				t.Fatalf("%s: an answer that had begun to arrive gave %d bytes, %v; want %d", label, len(body), err, len(tc.want))
			}
			if tc.want == "" && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: an answer that had not arrived whole gave %q, %v; want context.DeadlineExceeded", label, body, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: a read past the deadline waited for the shard", label)
		}
		wire.PutBuffer(x.buf)
		want := 0 // a failed answer's connection is closed
		if tc.want != "" {
			want = 1
		}
		if n := tr.idleTo(srv.URL); n != want {
			t.Fatalf("%s: %d idle connections, want %d", label, n, want)
		}
	}
}

// TestFleetTransportInlineNeverWaits: an inline exchange, which a fan-out
// sends on the handler's goroutine, goes out on an idle connection or not at
// all. Without one it dials nothing; with a body over inlineBodyBytes it
// leaves the idle connection in the pool; either way it is errWouldWait. A
// small body on an idle connection goes out and is answered.
func TestFleetTransportInlineNeverWaits(t *testing.T) {
	srv := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(w, r.Body)
	})
	tr := newShardTransport()
	tg, err := newTarget(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	inline := func(body []byte) (string, error) {
		c := call{ep: epOffering, body: body}
		x := exchange{ctx: context.Background(), t: tg, c: &c, buf: wire.GetBuffer(), inline: true}
		defer wire.PutBuffer(x.buf)
		if err := tr.send(&x); err != nil {
			return "", err
		}
		_, _, err := tr.receive(&x)
		return string(x.buf.B), err
	}
	if _, err := inline([]byte("small")); err != errWouldWait || srv.accepted.Load() != 0 {
		t.Fatalf("with no idle connection: %v, %d connections; want errWouldWait and none", err, srv.accepted.Load())
	}
	if _, _, _, err := hopTo(context.Background(), tr, srv.URL, call{ep: epHealthz}); err != nil {
		t.Fatal(err)
	}
	if _, err := inline(make([]byte, inlineBodyBytes+1)); err != errWouldWait || tr.idleTo(srv.URL) != 1 {
		t.Fatalf("a body over inlineBodyBytes: %v, %d idle; want errWouldWait and the connection kept", err, tr.idleTo(srv.URL))
	}
	if body, err := inline([]byte("small")); err != nil || body != "small" || srv.accepted.Load() != 1 {
		t.Fatalf("on an idle connection: %q, %v, %d connections; want the echo on the one", body, err, srv.accepted.Load())
	}
}

// TestFleetTransportRefusesHTTPS: the hop speaks plain http only; an https
// shard gets no target, so nothing is sent to it.
func TestFleetTransportRefusesHTTPS(t *testing.T) {
	if _, _, _, err := hopTo(context.Background(), newShardTransport(), "https://127.0.0.1:1", call{ep: epHealthz}); err == nil {
		t.Fatal("an https request was sent")
	}
}

// TestFleetTransportConcurrent: exchanges from several goroutines at once
// share the pool — each answer reaches the exchange that asked for it, and
// no more connections are opened than exchanges ran at once.
func TestFleetTransportConcurrent(t *testing.T) {
	srv := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(w, r.Body)
	})
	tr := newShardTransport()
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := "w=" + strconv.Itoa(w) + "&i=" + strconv.Itoa(i)
				if _, _, body, err := hopTo(context.Background(), tr, srv.URL, call{ep: epOffering, body: []byte(q)}); err != nil || body != q {
					t.Errorf("worker %d, exchange %d: %q, %v", w, i, body, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := srv.accepted.Load(); n > workers {
		t.Fatalf("%d workers opened %d connections", workers, n)
	}
}

// FuzzShardAnswer feeds arbitrary bytes to the answer reader. It never
// panics; an answer it takes has a body of exactly its Content-Length, within
// maxShardResponseBytes, and leaves the connection to the next exchange only
// with no Connection: close and nothing behind it; an answer it refuses never
// does. The seeds framed otherwise than by Content-Length — chunked, behind a
// 1xx, ended by the connection — are refused.
func FuzzShardAnswer(f *testing.F) {
	refused := make(map[string]bool)
	for _, seed := range []struct {
		answer  string
		refused bool
	}{
		{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", false},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n4\r\nabcd\r\n0\r\nX-Sum: 4\r\n\r\n", true},
		{"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nyes", true},
		{"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 3\r\n\r\nbye", false},
		{"HTTP/1.1 200 OK\r\n\r\nuntil the connection ends", true},
		{"HTTP/1.1 200 OK\r\nContent-Length: 33554433\r\n\r\ntoo long", true},
		{"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", true},
	} {
		f.Add([]byte(seed.answer))
		refused[seed.answer] = seed.refused
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		buf := wire.GetBuffer()
		defer wire.PutBuffer(buf)
		buf.B = append(buf.B, "what the buffer held"...)
		status, header, keep, err := readAnswer(br, buf)
		if err != nil {
			if keep {
				t.Fatalf("a refused answer (%v) left its connection to the pool", err)
			}
			return
		}
		if refused[string(data)] {
			t.Fatalf("took %q", data)
		}
		if status < 200 || header.contentLength != int64(len(buf.B)) || int64(len(buf.B)) > maxShardResponseBytes {
			t.Fatalf("status %d, Content-Length %d and a body of %d bytes", status, header.contentLength, len(buf.B))
		}
		if keep && (header.close || br.Buffered() != 0) {
			t.Fatalf("an answer kept its connection: Connection: close %v, %d bytes behind it", header.close, br.Buffered())
		}
	})
}

// TestFleetTransportReadFullSizesOnce: a body of declared length is read into
// one buffer of that length, not grown by doubling — a 444 KB answer
// allocated 1.6 MB so — and a length declared and not sent costs at most
// what arrived, or firstGrowth.
func TestFleetTransportReadFullSizesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const runs = 8
	// allocated is what readFull allocates a run on average, reading n
	// declared bytes out of src into a buffer of the pool's first size.
	allocated := func(src []byte, n int) uint64 {
		readers, bufs := make([]*bufio.Reader, runs), make([]*wire.Buffer, runs)
		for i := range readers {
			readers[i] = bufio.NewReader(bytes.NewReader(src))
			bufs[i] = &wire.Buffer{B: make([]byte, 0, 4096)}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range readers {
			err := readFull(readers[i], bufs[i], n)
			if (err == nil) != (len(src) >= n) {
				t.Fatalf("reading %d declared bytes of %d sent: %v", n, len(src), err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	body := bytes.Repeat([]byte{0xEC}, 444<<10)
	if got, want := allocated(body, len(body)), uint64(len(body)); got > want+want/16 {
		t.Errorf("a %d B body allocates %d B to read", want, got)
	}
	if got := allocated(body[:10<<10], int(maxShardResponseBytes)); got > firstGrowth+firstGrowth/16 {
		t.Errorf("a declared %d B body of which 10 KB arrive allocates %d B to read", maxShardResponseBytes, got)
	}
}
