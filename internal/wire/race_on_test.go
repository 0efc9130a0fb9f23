//go:build race

package wire

// raceEnabled reports that this test binary runs under the race detector.
// There slices.Grow's append(s, make(...)...) is not fused into one grow:
// it also allocates a zeroed temporary of the grown length, so a byte count
// reads twice what the encoder asks for.
const raceEnabled = true
