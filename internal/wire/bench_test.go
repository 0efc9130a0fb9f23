package wire

import (
	"encoding/json"
	"testing"

	"ecocharge/internal/charger"
)

// BenchmarkWireCodec pits the binary codec against encoding/json, and
// against the JSON appenders that answer in its place (json-append), on the
// payloads the wire actually carries: a k=16 offering table and an 80-
// charger inventory. The binary side and the appenders must hold 0 B/op in
// steady state.
func BenchmarkWireCodec(b *testing.B) {
	resp := sampleResponse(16)
	cs := sampleChargers(80)

	b.Run("encode-response/wire", func(b *testing.B) {
		buf := make([]byte, 0, 1<<16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendOfferingResponse(buf[:0], &resp)
		}
	})
	b.Run("encode-response/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-response/json-append", func(b *testing.B) {
		buf := make([]byte, 0, 1<<16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = AppendOfferingResponseJSON(buf[:0], &resp); err != nil {
				b.Fatal(err)
			}
		}
	})

	encResp := AppendOfferingResponse(nil, &resp)
	jsonResp, err := json.Marshal(&resp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode-response/wire", func(b *testing.B) {
		out := OfferingResponse{Entries: make([]OfferingEntry, 0, len(resp.Entries))}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeOfferingResponse(encResp, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-response/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out OfferingResponse
			if err := json.Unmarshal(jsonResp, &out); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("encode-inventory/wire", func(b *testing.B) {
		buf := make([]byte, 0, 1<<20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendChargerRefs(buf[:0], cs)
		}
	})
	b.Run("encode-inventory/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(cs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-inventory/json-append", func(b *testing.B) {
		buf := make([]byte, 0, 1<<20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = AppendChargerRefsJSON(buf[:0], cs); err != nil {
				b.Fatal(err)
			}
		}
	})

	encCs := AppendChargerRefs(nil, cs)
	jsonCs, err := json.Marshal(cs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode-inventory/wire", func(b *testing.B) {
		dst := make([]charger.Charger, 0, len(cs))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = DecodeChargers(encCs, dst)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-inventory/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var dst []charger.Charger
			if err := json.Unmarshal(jsonCs, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
