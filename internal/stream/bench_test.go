package stream

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkOscillationEstimatorPushColumns is the per-layer figure of the
// columnar Hölder estimator: ns per raw sample through PushColumns, for
// ladders of 3, 5 and 7 dyadic rungs at the daemon's relay (256) and
// binary-frame (4096) sizes, and at frames 1 and 8, below the
// shortColumn cut-off, where the per-sample Push loop serves the column. The input is a seeded random walk with
// Gaussian jitter — a noisy counter, never a ramp, so the memoized
// regression recomputes at most centers instead of replaying one cached
// slope.
func BenchmarkOscillationEstimatorPushColumns(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 1<<16)
	level := 1e9
	for i := range xs {
		level += 200 * rng.NormFloat64()
		xs[i] = level + 50*rng.NormFloat64()
	}
	for _, rungs := range []int{3, 5, 7} {
		radii := make([]int, rungs)
		for i := range radii {
			radii[i] = 2 << i
		}
		for _, frame := range []int{1, 8, 256, 4096} {
			b.Run(fmt.Sprintf("rungs=%d/frame=%d", rungs, frame), func(b *testing.B) {
				est, err := NewOscillationEstimator(radii)
				if err != nil {
					b.Fatal(err)
				}
				out := make([]float64, 0, frame)
				off := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if off+frame > len(xs) {
						off = 0
					}
					out = est.PushColumns(xs[off:off+frame], out[:0])
					off += frame
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frame), "ns/sample")
			})
		}
	}
}
