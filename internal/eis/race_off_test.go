//go:build !race

package eis

const raceEnabled = false
