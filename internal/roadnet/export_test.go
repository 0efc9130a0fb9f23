package roadnet

import "testing"

// HeapOnly makes every expansion decline the bucket ring until tb ends, so
// one test or benchmark can hold the two frontiers to each other on the same
// binary and the same inputs. Not for parallel tests: it writes a package
// variable.
func HeapOnly(tb testing.TB) {
	heapOnly = true
	tb.Cleanup(func() { heapOnly = false })
}
