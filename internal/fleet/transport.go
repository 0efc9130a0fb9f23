package fleet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/wire"
)

// This file is the gateway's shard hop: one HTTP/1.1 exchange with one
// shard, in two halves that run on the goroutine that calls them. send
// writes the request in one write — the head its target built once for the
// endpoint and the length and bytes of its body — on a
// pooled keep-alive connection that has no goroutine of its own; receive
// reads the answer on that connection, the header fields the gateway reads
// and nothing else, its body straight into the caller's pooled buffer. So a
// fan-out writes every shard's request that can go out at once, and then
// reads their answers, on the handler's goroutine (exchange.go); a request
// that would wait on a dial, or on the shard to read its body, is refused
// (errWouldWait) and goes out apart. net/http's transport would hand each
// exchange to a write loop and a read loop, two goroutines per connection,
// and wrap bytes the gateway already holds in an http.Request on the way out
// and an http.Response on the way in.
//
// What it does not do, on purpose: TLS (a shard URL is plain http, which
// NewGateway checks), proxies (HTTP_PROXY is not consulted), compression,
// HTTP/2, redirects (a shard's 3xx is an answer like any other), and any
// framing but Content-Length: every answer of a shard is written whole with
// its length (eis.WriteBody), so one without a Content-Length — chunked,
// ended by the connection, or a 1xx interim answer — is a malformed shard
// answer, and its connection is closed.

const (
	// maxIdlePerShard caps the idle connections kept per shard address; a
	// connection released to a full stack is closed.
	maxIdlePerShard = 64
	// maxShardIdle is how long an idle connection is trusted. It stays under
	// the shards' own idle timeout (two minutes, eis.NewHTTPServer), so the
	// shard rarely closes a connection the gateway is about to reuse; when it
	// does, the exchange is retried once (staleConn).
	maxShardIdle = 30 * time.Second
	// maxAnswerHeaderBytes bounds the header section of one answer.
	maxAnswerHeaderBytes = 64 << 10
	// inlineBodyBytes is the largest request body an inline exchange sends:
	// the empty send buffer of a pooled connection takes it with its head at
	// once, so its write never waits on the shard. Linux sizes an established
	// connection's at twice ten segments' worth, about 80 KB at an Ethernet
	// segment size (tcp_sndbuf_expand); a benchmark trip sends a shard 21 KB.
	inlineBodyBytes = 32 << 10
	// lateAnswerBound is how long an answer that had begun to arrive when
	// the exchange's deadline passed may take to arrive whole. What the shard
	// sent and the socket buffers could not hold comes as fast as it is read.
	lateAnswerBound = 100 * time.Millisecond
)

// errWouldWait is an inline exchange that did not go out because its write
// could wait — on a dial, or on the shard to read its body — and nothing of
// it was sent.
var errWouldWait = errors.New("fleet: the exchange could wait to go out")

// aLongTimeAgo is a deadline in the past: setting it makes every blocked read
// or write on a connection return at once.
var aLongTimeAgo = time.Unix(1, 0)

// hop is the gateway's shard hop in its two halves. send writes x's request;
// receive, called after every send that succeeded, reads the answer into
// x.buf, over the request, and returns its status and header. An error from
// either is a shard that gave no answer. Gateway.hop is shardTransport's, and
// a test may wrap either half.
type hop struct {
	send    func(x *exchange) error
	receive func(x *exchange) (status int, header answerHeader, err error)
}

// exchange is one request to one shard between the hop's two halves.
type exchange struct {
	// ctx cancels the exchange and deadline ends it (zero: never); hook,
	// when set, stops its connection once ctx is cancelled. The exchanges of
	// one fan-out share their context, deadline and hook.
	ctx      context.Context
	deadline time.Time
	hook     *cancelHook

	t   *target
	c   *call
	buf *wire.Buffer // the request, then the answer

	// pc is the connection the request went out on, until receive releases
	// it; retried says it went out again on a fresh one (staleConn).
	pc      *shardConn
	retried bool

	// inline says the exchange runs on a fan-out's goroutine, which sends
	// the next shard's request once this one's is out: send takes an idle
	// connection and a body of inlineBodyBytes at most, or returns
	// errWouldWait.
	inline bool
}

// done is the error of an exchange that may not start: its context's, or
// its deadline's once that has passed.
func (x *exchange) done() error {
	if err := x.ctx.Err(); err != nil {
		return err
	}
	if !x.deadline.IsZero() && !time.Now().Before(x.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// fail is the error of an exchange that failed with err: its context's when
// that is done, as net/http reports it; context.DeadlineExceeded when the
// connection's deadline, which is the exchange's, stopped it; err otherwise.
func (x *exchange) fail(err error) error {
	if cerr := x.ctx.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, os.ErrDeadlineExceeded) && !x.deadline.IsZero() && !time.Now().Before(x.deadline) {
		return context.DeadlineExceeded
	}
	return err
}

// cancelHook moves the deadline of every connection it holds into the past
// once its context is cancelled, which stops a blocked read or write at once.
// A fan-out arms one for all its exchanges, an attempt outside one arms its
// own; the deadline itself needs no hook, being the connections' own.
type cancelHook struct {
	mu    sync.Mutex
	conns []*shardConn
	fired bool
	// gen counts disarms, so that a hook that fires late, after its fan-out
	// was disarmed, touches nothing of the next one.
	gen  uint64
	stop func() bool
}

// arm registers the hook on ctx.
func (h *cancelHook) arm(ctx context.Context) {
	if ctx.Done() != nil {
		gen := h.gen
		h.stop = context.AfterFunc(ctx, func() { h.fire(gen) })
	}
}

func (h *cancelHook) fire(gen uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if gen != h.gen {
		return
	}
	h.fired = true
	for _, pc := range h.conns {
		_ = pc.conn.SetDeadline(aLongTimeAgo)
	}
}

// disarm unregisters the hook once every connection it held was dropped.
func (h *cancelHook) disarm() {
	if h.stop != nil {
		h.stop()
		h.stop = nil
	}
	h.mu.Lock()
	h.gen++
	h.fired = false
	clear(h.conns)
	h.conns = h.conns[:0]
	h.mu.Unlock()
}

// hold adds pc to the connections the hook stops; false means it has fired
// already.
func (h *cancelHook) hold(pc *shardConn) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fired {
		return false
	}
	h.conns = append(h.conns, pc)
	return true
}

// drop removes pc from the hook and reports whether the hook fired while it
// held pc: then pc's deadline may have moved, and it is not to be reused.
func (h *cancelHook) drop(pc *shardConn) (fired bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, held := range h.conns {
		if held == pc {
			last := len(h.conns) - 1
			h.conns[i], h.conns[last] = h.conns[last], nil
			h.conns = h.conns[:last]
			break
		}
	}
	return h.fired
}

// shardTransport is the gateway's connection pool: one LIFO stack of idle
// connections per shard address.
type shardTransport struct {
	mu   sync.Mutex
	idle map[string][]*shardConn
}

func newShardTransport() *shardTransport {
	return &shardTransport{idle: make(map[string][]*shardConn)}
}

// hop is the hop every exchange runs on.
func (t *shardTransport) hop() hop { return hop{send: t.send, receive: t.receive} }

// shardConn is one connection with its read buffer.
type shardConn struct {
	conn net.Conn
	br   *bufio.Reader
	addr string
	// idleSince is when it was last released to the pool; reused says it
	// came from the pool, so that the shard may have closed it meanwhile.
	idleSince time.Time
	reused    bool
}

// send is the hop's first half: it writes x's request, appended into x.buf,
// on a pooled connection — or a fresh one — whose deadline becomes x's. An
// inline exchange's request that would need a fresh one, or whose body is
// over inlineBodyBytes, is not sent: errWouldWait.
func (t *shardTransport) send(x *exchange) error {
	if x.inline && len(x.c.body) > inlineBodyBytes {
		return errWouldWait
	}
	for {
		if err := x.done(); err != nil {
			return err
		}
		pc, err := t.get(x)
		if err != nil {
			return x.fail(err)
		}
		// SetDeadline fails only on a closed connection, which the write
		// reports. It goes first: a hook that fires from here on moves it.
		_ = pc.conn.SetDeadline(x.deadline)
		if x.hook != nil && !x.hook.hold(pc) {
			t.put(pc)
			return x.ctx.Err()
		}
		x.pc = pc
		x.buf.B = x.t.appendRequest(x.buf.B[:0], x.c)
		if _, err = pc.conn.Write(x.buf.B); err == nil {
			return nil
		}
		t.release(x, false)
		// A connection the shard closed while it sat idle fails before the
		// first byte of the answer: once, the request goes again on a fresh
		// one — inline too, a shard that closed a connection being up. A
		// request the shard may have seen no byte of is safe to send again
		// whatever its method.
		if !pc.reused || x.retried || !staleConn(err) || x.ctx.Err() != nil {
			return x.fail(err)
		}
		x.retried = true
	}
}

// receive is the hop's second half: it reads the answer to x's request,
// which send wrote, and releases the connection — to the pool when the
// answer leaves it fit for the next exchange and the cancellation hook did
// not fire on it, closed in every other case. Past x's deadline, as when a
// fan-out has waited on another shard, an answer that has not begun to
// arrive is not waited for, and one that has is read under lateAnswerBound.
func (t *shardTransport) receive(x *exchange) (int, answerHeader, error) {
	for {
		pc := x.pc
		late := !x.deadline.IsZero() && !time.Now().Before(x.deadline)
		if late {
			_ = pc.conn.SetReadDeadline(time.Now().Add(time.Millisecond))
		}
		_, err := pc.br.Peek(1)
		early := err != nil
		if late && err == nil {
			_ = pc.conn.SetReadDeadline(time.Now().Add(lateAnswerBound))
			// The hook fires after its context is done: one that fired
			// before the deadline moved is seen here.
			err = x.ctx.Err()
		}
		var (
			status int
			header answerHeader
			keep   bool
		)
		if err == nil {
			status, header, keep, err = readAnswer(pc.br, x.buf)
		}
		t.release(x, err == nil && keep)
		if err == nil {
			return status, header, nil
		}
		if !early || !pc.reused || x.retried || !staleConn(err) || x.ctx.Err() != nil {
			return 0, answerHeader{}, x.fail(err)
		}
		// The pooled connection was closed before the shard read the
		// request (send).
		x.retried = true
		if err := t.send(x); err != nil {
			return 0, answerHeader{}, err
		}
	}
}

// release ends x's hold on its connection: back to the pool when keep says
// so and the cancellation hook did not fire on it, closed otherwise.
func (t *shardTransport) release(x *exchange, keep bool) {
	pc := x.pc
	x.pc = nil
	if x.hook != nil && x.hook.drop(pc) {
		keep = false
	}
	if keep {
		t.put(pc)
	} else {
		_ = pc.conn.Close()
	}
}

// staleConn reports the errors of a connection the peer has closed.
func staleConn(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// get returns an idle connection to x's shard, the one released last, or
// dials a new one under x's context and deadline — but for an inline
// exchange, which gets errWouldWait; a retried exchange always dials. A stack
// whose newest connection is too old to trust is old all through, and is
// closed.
func (t *shardTransport) get(x *exchange) (*shardConn, error) {
	addr := x.t.addr
	if !x.retried {
		now := time.Now()
		t.mu.Lock()
		stack := t.idle[addr]
		if n := len(stack); n > 0 {
			if pc := stack[n-1]; now.Sub(pc.idleSince) < maxShardIdle {
				stack[n-1] = nil
				t.idle[addr] = stack[:n-1]
				t.mu.Unlock()
				pc.reused = true
				return pc, nil
			}
			old := append([]*shardConn(nil), stack...)
			clear(stack)
			t.idle[addr] = stack[:0]
			t.mu.Unlock()
			for _, pc := range old {
				_ = pc.conn.Close()
			}
		} else {
			t.mu.Unlock()
		}
		if x.inline {
			return nil, errWouldWait
		}
	}
	dialer := net.Dialer{Deadline: x.deadline}
	conn, err := dialer.DialContext(x.ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &shardConn{conn: conn, br: bufio.NewReader(conn), addr: addr}, nil
}

// put releases a connection whose last answer was read to its end.
func (t *shardTransport) put(pc *shardConn) {
	pc.idleSince = time.Now()
	t.mu.Lock()
	if stack := t.idle[pc.addr]; len(stack) < maxIdlePerShard {
		t.idle[pc.addr] = append(stack, pc)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	_ = pc.conn.Close()
}

// answerHeader is what the gateway reads of a shard answer's header: the
// body's length, whether the shard closes the connection, the two fields
// passthrough relays, and the road world a /healthz answer states
// (eis.HeaderRoadWorld). Every other field is skipped.
type answerHeader struct {
	contentLength int64 // -1: none declared
	close         bool  // Connection: close
	contentType   string
	retryAfter    string
	world         uint64 // 0: none stated
}

// readAnswer reads one answer from br: its status line and header, and the
// body of the length its Content-Length declares into buf, over whatever buf
// held. An answer of any other framing, or with a body over
// maxShardResponseBytes, is refused before a byte of its body is read. keep
// reports an answer with no Connection: close and nothing buffered behind
// it: the connection may carry the next exchange.
func readAnswer(br *bufio.Reader, buf *wire.Buffer) (status int, header answerHeader, keep bool, err error) {
	line, err := readLine(br)
	if err != nil {
		return 0, answerHeader{}, false, err
	}
	proto, code, ok := bytes.Cut(line, []byte(" "))
	major, _, vok := http.ParseHTTPVersion(string(proto))
	if !ok || !vok || major != 1 || len(code) < 3 {
		return 0, answerHeader{}, false, fmt.Errorf("fleet: malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(code[:3])); err != nil || status < 200 {
		return 0, answerHeader{}, false, fmt.Errorf("fleet: malformed shard answer: status line %q", line)
	}
	if header, err = readHeader(br); err != nil {
		return 0, answerHeader{}, false, err
	}
	if header.contentLength < 0 {
		return 0, answerHeader{}, false, errors.New("fleet: malformed shard answer: no Content-Length")
	}
	if header.contentLength > maxShardResponseBytes {
		return 0, answerHeader{}, false, fmt.Errorf("fleet: shard response of %d bytes exceeds %d", header.contentLength, maxShardResponseBytes)
	}
	buf.B = buf.B[:0]
	if err := readFull(br, buf, int(header.contentLength)); err != nil {
		return 0, answerHeader{}, false, err
	}
	return status, header, !header.close && br.Buffered() == 0, nil
}

// readHeader reads a header section up to the empty line that ends it,
// keeping what answerHeader holds. A second Content-Length, one that is not a
// number, and any Transfer-Encoding are errors.
func readHeader(br *bufio.Reader) (h answerHeader, err error) {
	h.contentLength = -1
	for size := 0; ; {
		line, err := readLine(br)
		if err != nil {
			return h, err
		}
		if len(line) == 0 {
			return h, nil
		}
		if size += len(line); size > maxAnswerHeaderBytes {
			return h, fmt.Errorf("fleet: shard answer header exceeds %d bytes", maxAnswerHeaderBytes)
		}
		key, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || len(key) == 0 || bytes.ContainsAny(key, " \t") {
			return h, fmt.Errorf("fleet: malformed header line %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case fieldIs(key, "Content-Length"):
			n, perr := strconv.ParseUint(string(value), 10, 63)
			if h.contentLength >= 0 || perr != nil {
				return h, fmt.Errorf("fleet: bad Content-Length %q", value)
			}
			h.contentLength = int64(n)
		case fieldIs(key, "Transfer-Encoding"):
			return h, fmt.Errorf("fleet: malformed shard answer: Transfer-Encoding %q", value)
		case fieldIs(key, "Connection"):
			h.close = h.close || hasToken(string(value), "close")
		case fieldIs(key, "Content-Type"):
			h.contentType = known(value, wire.ContentType, eis.ContentTypeJSON)
		case fieldIs(key, "Retry-After"):
			h.retryAfter = known(value, eis.RetryAfter)
		case fieldIs(key, eis.HeaderRoadWorld):
			// A world that does not parse reads 0, no world: the gateway
			// then does not search for the shard (probe).
			h.world, _ = strconv.ParseUint(string(value), 16, 64)
		}
	}
}

// readLine reads one line of an answer's head without its line ending; the
// line is valid until br is read again.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errors.New("fleet: shard answer line too long")
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
}

// fieldIs reports whether a header field's name is name, in any case.
func fieldIs(key []byte, name string) bool {
	return len(key) == len(name) && strings.EqualFold(string(key), name)
}

// known is v as one of the values a shard sends, so that reading it
// allocates nothing, or as a string of its own.
func known(v []byte, values ...string) string {
	for _, s := range values {
		if string(v) == s {
			return s
		}
	}
	return string(v)
}

// readFull reads exactly n bytes of br into buf. A full buffer grows at
// once to min(n, firstGrowth), then by doubling up to n: a length declared
// and not sent costs what did arrive, or firstGrowth.
func readFull(br *bufio.Reader, buf *wire.Buffer, n int) error {
	for len(buf.B) < n {
		if len(buf.B) == cap(buf.B) {
			buf.B = append(make([]byte, 0, min(n, max(2*len(buf.B), firstGrowth))), buf.B...)
		}
		m, err := br.Read(buf.B[len(buf.B):min(cap(buf.B), n)])
		buf.B = buf.B[:len(buf.B)+m]
		if err != nil && len(buf.B) < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// firstGrowth is what a declared length may reserve before its bytes arrive;
// past it, an answer's buffer doubles as its bytes come (readFull).
const firstGrowth = 1 << 20

// hasToken reports whether a comma-separated header value holds token.
func hasToken(v, token string) bool {
	for v != "" {
		var t string
		t, v, _ = strings.Cut(v, ",")
		if strings.EqualFold(strings.TrimSpace(t), token) {
			return true
		}
	}
	return false
}
