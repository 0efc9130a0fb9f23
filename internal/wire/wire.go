// Package wire is the EcoCharge zero-copy data plane: the wire types the
// EIS and the fleet gateway exchange, plus a compact length-prefixed binary
// codec for the hot-path payloads (Offering Tables, one or a trip's worth,
// the charger inventory, and the per-charger point lookups).
//
// JSON stays the canonical, default interchange format — every binary
// message decodes to exactly the struct its JSON twin decodes to, and the
// fuzzed round-trip suite pins that equivalence. The binary format exists
// for one reason: at fleet scale the encode/decode share of serving latency
// is first-order, and stdlib JSON pays reflection, per-field allocation,
// and base-10 float formatting on every request. The binary codec is
// reflection-free, uses fixed-width little-endian numerics and varint
// lengths, and both directions run alloc-free in steady state against
// pooled buffers.
//
// Negotiation is standard HTTP: a client that wants binary sends
// `Accept: application/x-ecocharge-wire` (and may POST a binary body with
// the matching Content-Type); the server answers binary only for payload
// types the codec covers and stamps the Content-Type, so a peer that never
// asks — or a server that predates the codec — degrades to JSON without
// any out-of-band coordination. Error responses are always JSON: they are
// cold, and keeping them textual keeps failures debuggable with curl.
//
// Framing: every message starts with the three-byte header
// {magic 0xEC, version 1, kind}; decoding verifies the header, the kind,
// and that the payload consumes the input exactly. Slices carry uvarint
// length prefixes; floats are IEEE-754 bits (NaN/Inf rejected on decode —
// JSON cannot represent them, so neither may the binary plane); times are
// wall seconds + nanoseconds + UTC offset, which reproduces the RFC 3339
// rendering byte-for-byte.
package wire

import (
	"io"
	"strings"
	"sync"
)

// ContentType is the negotiated media type of the binary format.
const ContentType = "application/x-ecocharge-wire"

// Header layout of every binary message.
const (
	magic   = 0xEC
	version = 1
)

// Message kinds (the third header byte).
const (
	kindOfferingRequest  = 1
	kindOfferingResponse = 2
	kindChargers         = 3
	kindWeather          = 4
	kindAvailability     = 5
	kindTripRequest      = 6
	kindTripResponse     = 7
)

// Accepts reports whether an Accept header asks for the binary format. Only
// an explicit token selects it — wildcards keep the JSON default, so plain
// browsers and curl never receive binary by accident.
func Accepts(accept string) bool {
	for accept != "" {
		var part string
		part, accept, _ = strings.Cut(accept, ",")
		part, _, _ = strings.Cut(part, ";") // drop q= and other params
		if strings.EqualFold(strings.TrimSpace(part), ContentType) {
			return true
		}
	}
	return false
}

// IsWire reports whether a Content-Type header names the binary format.
func IsWire(contentType string) bool {
	ct, _, _ := strings.Cut(contentType, ";")
	return strings.EqualFold(strings.TrimSpace(ct), ContentType)
}

// Buffer is a pooled byte buffer for encoding messages and reading response
// bodies without a fresh allocation per exchange. Get one with GetBuffer,
// use B (always append to B[:0] or via ReadLimit), and return it with
// PutBuffer when the bytes are no longer referenced.
type Buffer struct {
	B []byte
}

// maxPooledBuf caps the capacity a returned buffer may retain: one
// 32 MB inventory response must not pin 32 MB in the pool forever.
const maxPooledBuf = 1 << 22 // 4 MB

var bufPool = sync.Pool{
	New: func() interface{} { return &Buffer{B: make([]byte, 0, 4096)} },
}

// GetBuffer returns a pooled buffer with B reset to length zero.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// PutBuffer returns a buffer to the pool. The caller must not touch B (or
// any slice aliasing it) afterwards. Oversized buffers are dropped so the
// pool's steady-state footprint stays bounded.
func PutBuffer(b *Buffer) {
	if b == nil || cap(b.B) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// ReadLimit reads r into the buffer, reusing its capacity, stopping at EOF
// or after max+1 bytes — like io.ReadAll(io.LimitReader(r, max+1)), callers
// detect an oversized body with len(b.B) > max and keep their own policy
// for it (the client treats it as a terminal protocol violation, not a
// transport fault). It replaces the ReadAll-per-response pattern: a pooled
// buffer makes the read path allocation-free once warm, where ReadAll
// grows a fresh slice through O(log n) copies per call.
func (b *Buffer) ReadLimit(r io.Reader, max int64) error {
	b.B = b.B[:0]
	for int64(len(b.B)) <= max {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		room := cap(b.B) - len(b.B)
		if over := int64(len(b.B)+room) - (max + 1); over > 0 {
			room -= int(over)
		}
		n, err := r.Read(b.B[len(b.B) : len(b.B)+room])
		b.B = b.B[:len(b.B)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}
