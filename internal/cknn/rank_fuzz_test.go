package cknn_test

import (
	"reflect"
	"testing"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/cknn/tabletest"
	ivl "ecocharge/internal/interval"
)

// FuzzRank decodes a table size k (0–12) and a pool, one entry per three
// bytes: a charger ID from an alphabet of six, so that pools repeat
// chargers, and two score bounds in [0, 1]. Rank must return the literal
// eq. 6 ranking over one entry per charger, entry for entry, and a table
// tabletest accepts.
func FuzzRank(f *testing.F) {
	f.Add([]byte{3, 0, 0, 255, 1, 64, 64, 2, 0, 255, 3, 128, 128, 4, 64, 192}) // a tie grid
	f.Add([]byte{2, 1, 128, 230, 1, 153, 204, 2, 25, 51})                      // one charger twice
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0] % 13)
		var chargers [6]charger.Charger
		var pool []cknn.Entry
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			c := &chargers[b[0]%6]
			c.ID = int64(b[0]%6) + 1
			pool = append(pool, cknn.Entry{Charger: c, SC: ivl.FromBounds(float64(b[1])/255, float64(b[2])/255)})
		}
		got := cknn.Rank(nil, pool, k)
		if want := cknn.RankOracle(pool, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: Rank = %v, oracle %v", k, cknn.OfferingTable{Entries: got}.IDs(), cknn.OfferingTable{Entries: want}.IDs())
		}
		if err := tabletest.Err(cknn.OfferingTable{Entries: got}, k, tabletest.Options{}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	})
}
