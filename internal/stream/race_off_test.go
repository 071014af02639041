//go:build !race

package stream

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool deliberately drops a share of the items put back, so a
// pooled scratch is sometimes reallocated and zero-allocation assertions
// on pooled paths do not hold.
const raceEnabled = false
