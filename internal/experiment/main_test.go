package experiment

import (
	"testing"

	"ecocharge/internal/roadnet/pooltest"
)

// TestMain adds the search-state leak check to the suite: after the last
// test, every pooled kernel scratch the run acquired must be released.
func TestMain(m *testing.M) { pooltest.Main(m) }
