package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ecocharge/internal/wire"
)

// This file is the gateway's shard hop: one HTTP/1.1 exchange with one
// shard, run on the goroutine that asks for it. The request goes out in one
// write — the head its target built once for the endpoint, the call's query
// and the length and bytes of its body — and the answer is read on the same
// goroutine, its body straight into the caller's pooled buffer, on a pooled
// keep-alive connection that has no goroutine of its own. net/http's
// transport would hand each exchange to a write loop and a read loop, two
// goroutines per connection, and wrap bytes the gateway already holds in an
// http.Request on the way out and an http.Response on the way in.
//
// What it does not do, on purpose: TLS (a shard URL is plain http, which
// NewGateway checks), proxies (HTTP_PROXY is not consulted), compression,
// HTTP/2 and redirects (a shard's 3xx is an answer like any other).

const (
	// maxIdlePerShard caps the idle connections kept per shard address; a
	// connection released to a full stack is closed.
	maxIdlePerShard = 64
	// maxShardIdle is how long an idle connection is trusted. It stays under
	// the shards' own idle timeout (a minute in load.StartInproc, two in
	// cmd/eis), so the shard rarely closes a connection the gateway is about
	// to reuse; when it does, the exchange is retried once (staleConn).
	maxShardIdle = 30 * time.Second
)

// aLongTimeAgo is a deadline in the past: setting it makes every blocked read
// or write on a connection return at once.
var aLongTimeAgo = time.Unix(1, 0)

// hopFunc is one exchange of c with t under ctx: it reads the answer's body
// into buf, over whatever buf held, and returns the answer's status and
// header; an error is a shard that gave no answer. Gateway.hop is
// shardTransport.hop, and a test may wrap it.
type hopFunc func(ctx context.Context, t *target, c *call, buf *wire.Buffer) (status int, header http.Header, err error)

// shardTransport is the gateway's connection pool: one LIFO stack of idle
// connections per shard address.
type shardTransport struct {
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*shardConn
}

func newShardTransport() *shardTransport {
	return &shardTransport{idle: make(map[string][]*shardConn)}
}

// shardConn is one connection with its read buffer.
type shardConn struct {
	conn net.Conn
	br   *bufio.Reader
	tp   textproto.Reader // over br
	addr string
	// idleSince is when it was last released to the pool; reused says it
	// came from the pool, so that the shard may have closed it meanwhile.
	idleSince time.Time
	reused    bool
}

// hop is the hopFunc every exchange runs on. The request is written into buf
// and the answer read over it, so an exchange takes one pooled buffer.
func (t *shardTransport) hop(ctx context.Context, tg *target, c *call, buf *wire.Buffer) (int, http.Header, error) {
	for retried := false; ; retried = true {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		pc, err := t.get(ctx, tg.addr, retried)
		if err != nil {
			return 0, nil, contextErr(ctx, err)
		}
		buf.B = tg.appendRequest(buf.B[:0], c)
		status, header, early, err := t.exchange(ctx, pc, buf)
		if err == nil {
			return status, header, nil
		}
		// A connection the shard closed while it sat idle fails before the
		// first byte of the answer: once, the exchange goes again on a fresh
		// one. A request the shard may have seen no byte of is safe to send
		// again whatever its method.
		if early && pc.reused && !retried && staleConn(err) && ctx.Err() == nil {
			continue
		}
		return 0, nil, contextErr(ctx, err)
	}
}

// staleConn reports the errors of a connection the peer has closed.
func staleConn(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// contextErr is the error of an exchange whose context is done: the
// context's, as net/http reports it, and not the connection's deadline error
// that stopped the read.
func contextErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return context.DeadlineExceeded
		}
	}
	return err
}

// get returns an idle connection to addr, the one released last, or dials a
// new one; fresh always dials. A stack whose newest connection is too old to
// trust is old all through, and is closed.
func (t *shardTransport) get(ctx context.Context, addr string, fresh bool) (*shardConn, error) {
	if !fresh {
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
	}
	conn, err := t.dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	pc := &shardConn{conn: conn, br: bufio.NewReader(conn), addr: addr}
	pc.tp.R = pc.br
	return pc, nil
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

// exchange sends the request in buf on pc and reads the answer into buf. The
// context's deadline is the connection's, and its cancellation moves that
// deadline into the past, which stops a blocked read or write at once. early
// reports an error before the first byte of the answer. The connection goes
// back to the pool when readAnswer says it may carry the next exchange and
// the cancellation hook had not fired; it is closed in every other case.
func (t *shardTransport) exchange(ctx context.Context, pc *shardConn, buf *wire.Buffer) (status int, header http.Header, early bool, err error) {
	deadline, _ := ctx.Deadline()
	// SetDeadline fails only on a closed connection, which the write reports.
	_ = pc.conn.SetDeadline(deadline)
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = pc.conn.SetDeadline(aLongTimeAgo) })
	}
	_, err = pc.conn.Write(buf.B)
	if err == nil {
		_, err = pc.br.Peek(1)
	}
	early = err != nil
	keep := false
	if err == nil {
		status, header, keep, err = readAnswer(&pc.tp, buf)
	}
	fired := stop != nil && !stop()
	if err == nil && keep && !fired {
		t.put(pc)
	} else {
		_ = pc.conn.Close()
	}
	return status, header, early, err
}

// readAnswer reads one answer from tp: the status line and header of the
// final answer, interim (1xx) ones skipped, and its body into buf, over
// whatever buf held. The body is framed by Content-Length, by the chunked
// coding and its trailer, or by the end of the connection, and refused over
// maxShardResponseBytes — before a byte of it is read when its length is
// declared. keep reports an answer read to its framed end, with no
// Connection: close and nothing buffered behind it: the connection may carry
// the next exchange.
func readAnswer(tp *textproto.Reader, buf *wire.Buffer) (status int, header http.Header, keep bool, err error) {
	for status < 200 {
		line, err := tp.ReadLine()
		if err != nil {
			return 0, nil, false, err
		}
		proto, code, ok := strings.Cut(line, " ")
		major, _, vok := http.ParseHTTPVersion(proto)
		if !ok || !vok || major != 1 || len(code) < 3 {
			return 0, nil, false, fmt.Errorf("fleet: malformed status line %q", line)
		}
		if status, err = strconv.Atoi(code[:3]); err != nil || status < 100 {
			return 0, nil, false, fmt.Errorf("fleet: malformed status line %q", line)
		}
		h, err := tp.ReadMIMEHeader()
		if err != nil {
			return 0, nil, false, err
		}
		header = http.Header(h)
	}
	buf.B = buf.B[:0]
	keep = !hasToken(header.Get("Connection"), "close")
	te, cl := header["Transfer-Encoding"], header["Content-Length"]
	switch {
	case status == http.StatusNoContent || status == http.StatusNotModified:
	case te != nil:
		if len(te) != 1 || !strings.EqualFold(te[0], "chunked") || cl != nil {
			return 0, nil, false, fmt.Errorf("fleet: unsupported framing: Transfer-Encoding %q, Content-Length %q", te, cl)
		}
		if err := readLimited(buf, httputil.NewChunkedReader(tp.R)); err != nil {
			return 0, nil, false, err
		}
		// The trailer section and the empty line that ends the answer.
		if _, err := tp.ReadMIMEHeader(); err != nil {
			keep = false
		}
	case cl != nil:
		n, perr := strconv.ParseUint(cl[0], 10, 63)
		if len(cl) > 1 || perr != nil {
			return 0, nil, false, fmt.Errorf("fleet: bad Content-Length %q", cl)
		}
		if n > uint64(maxShardResponseBytes) {
			return 0, nil, false, fmt.Errorf("fleet: shard response of %d bytes exceeds %d", n, maxShardResponseBytes)
		}
		if err := readFull(tp.R, buf, int(n)); err != nil {
			return 0, nil, false, err
		}
	default:
		keep = false // the body ends where the connection does
		if err := readLimited(buf, tp.R); err != nil {
			return 0, nil, false, err
		}
	}
	return status, header, keep && tp.R.Buffered() == 0, nil
}

// readLimited reads r to its end into buf, refusing more than
// maxShardResponseBytes.
func readLimited(buf *wire.Buffer, r io.Reader) error {
	if err := buf.ReadLimit(r, maxShardResponseBytes); err != nil {
		return err
	}
	if int64(len(buf.B)) > maxShardResponseBytes {
		return fmt.Errorf("fleet: shard response exceeds %d bytes", maxShardResponseBytes)
	}
	return nil
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

// firstGrowth is what a declared length may reserve before its bytes arrive,
// enough to read an inventory pull (444 KB for an Oldenburg shard) at once.
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
