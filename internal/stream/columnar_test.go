package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// columnarTraces are the waveforms the columnar-kernel parity tests run:
// each stresses a different branch of the batch estimator (memo hits on
// plateaus, memo misses on noise, the osc<=0 locally-constant path,
// denormal-scale values, and windows mixing +0 and -0, where max and min
// pick differently signed zeros depending on tie order). They are long
// enough that 4096-sample chunks split them mid-stream.
func columnarTraces() map[string][]float64 {
	const n = 9000
	rng := rand.New(rand.NewSource(7))
	noisy := make([]float64, n)
	for i := range noisy {
		noisy[i] = 1e9 - 1000*float64(i) + 50*rng.NormFloat64()
	}
	ramp := make([]float64, n)
	for i := range ramp {
		ramp[i] = float64(i) * 4096
	}
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = float64((i / 37) * 1 << 20)
	}
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = 42
	}
	tiny := make([]float64, n)
	for i := range tiny {
		tiny[i] = 1e-300 * (1 + rng.Float64())
	}
	zeros := make([]float64, n)
	for i := range zeros {
		switch v := rng.Intn(40); {
		case v == 0:
			zeros[i] = rng.NormFloat64()
		case v%2 == 0:
			zeros[i] = math.Copysign(0, -1)
		}
	}
	return map[string][]float64{
		"noisy": noisy, "ramp": ramp, "steps": steps, "flat": flat, "tiny": tiny, "signed-zeros": zeros,
	}
}

// parityLadders are the radius ladders the columnar parity tests run:
// the daemon's default dyadic ladder and a short one, a dyadic ladder off
// the powers of two, a non-dyadic one, and unsorted and duplicate
// ladders (the cascade serves each rung from its own level, whatever the
// order).
var parityLadders = [][]int{
	{2, 4, 8, 16, 32},
	{2, 4, 8},
	{3, 6, 12, 24},
	{3, 5, 9},
	{16, 2, 8, 4},
	{4, 2, 4, 1},
}

// parityChunks are the PushColumns batch sizes of the parity tests; 0
// stands for the whole trace in one batch. shortColumn-1, shortColumn
// and shortColumn+1 straddle the cut-off between the per-sample loop
// and the cascade.
var parityChunks = []int{1, 3, 5, shortColumn - 1, shortColumn, shortColumn + 1, 17, 23, 64, 256, 4096, 0}

// pushAll runs xs through per-sample Push and returns the emitted alphas.
func pushAll(t testing.TB, est *OscillationEstimator, xs []float64) []float64 {
	t.Helper()
	var out []float64
	for _, x := range xs {
		if a, ok := est.Push(x); ok {
			out = append(out, a)
		}
	}
	return out
}

// requireSameBits fails unless have and want are bit-identical.
func requireSameBits(t testing.TB, what string, have, want []float64) {
	t.Helper()
	if len(have) != len(want) {
		t.Fatalf("%s: %d alphas, want %d", what, len(have), len(want))
	}
	for i := range have {
		if math.Float64bits(have[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: alpha[%d] = %v, want %v", what, i, have[i], want[i])
		}
	}
}

// TestPushColumnsParity requires PushColumns to emit bit-identical
// estimates and leave bit-identical estimator state versus per-sample
// Push, across ladders and chunkings that split batches mid-warmup and
// mid-stream.
func TestPushColumnsParity(t *testing.T) {
	for _, radii := range parityLadders {
		for name, xs := range columnarTraces() {
			ref, err := NewOscillationEstimator(radii)
			if err != nil {
				t.Fatal(err)
			}
			want := pushAll(t, ref, xs)
			for _, chunk := range parityChunks {
				if chunk == 0 {
					chunk = len(xs)
				}
				got, err := NewOscillationEstimator(radii)
				if err != nil {
					t.Fatal(err)
				}
				var have []float64
				for off := 0; off < len(xs); off += chunk {
					have = got.PushColumns(xs[off:min(off+chunk, len(xs))], have)
				}
				what := fmt.Sprintf("%v %s chunk=%d", radii, name, chunk)
				requireSameBits(t, what, have, want)
				if !reflect.DeepEqual(got.State(), ref.State()) {
					t.Fatalf("%s: estimator state diverged", what)
				}
			}
		}
	}
}

// TestPushColumnsInterleaved mixes Push and PushColumns on one estimator:
// the memo must never go stale, and the raw tail must stay contiguous,
// when per-sample pushes run between batches.
func TestPushColumnsInterleaved(t *testing.T) {
	traces := columnarTraces()
	for _, radii := range parityLadders {
		for _, name := range []string{"noisy", "signed-zeros"} {
			xs := traces[name]
			ref, _ := NewOscillationEstimator(radii)
			want := pushAll(t, ref, xs)
			for _, chunk := range parityChunks {
				if chunk == 0 {
					chunk = len(xs)
				}
				got, _ := NewOscillationEstimator(radii)
				var have []float64
				for off := 0; off < len(xs); {
					if (off/10)%2 == 0 {
						if a, ok := got.Push(xs[off]); ok {
							have = append(have, a)
						}
						off++
						continue
					}
					end := min(off+chunk, len(xs))
					have = got.PushColumns(xs[off:end], have)
					off = end
				}
				what := fmt.Sprintf("%v %s chunk=%d interleaved", radii, name, chunk)
				requireSameBits(t, what, have, want)
				if !reflect.DeepEqual(got.State(), ref.State()) {
					t.Fatalf("%s: estimator state diverged", what)
				}
			}
		}
	}
}

// TestPushColumnsAfterRestore restores an estimator mid-stream — the raw
// tail is not persisted, so it restarts empty — and continues with
// batches small enough that several take the per-sample Push loop before
// the tail refills to 2*Lag() and the cascade takes over, plus one batch
// that crosses the refill boundary by itself. Every alpha and the final
// state must match the uninterrupted per-sample oracle.
func TestPushColumnsAfterRestore(t *testing.T) {
	xs := columnarTraces()["noisy"][:3000]
	for _, radii := range parityLadders {
		ref, _ := NewOscillationEstimator(radii)
		want := pushAll(t, ref, xs)
		for _, cut := range []int{0, 5, 70, 1000} {
			for _, chunk := range []int{1, 7, shortColumn, 100, 4096} {
				pre, _ := NewOscillationEstimator(radii)
				have := pre.PushColumns(xs[:cut], nil)
				got, err := RestoreOscillationEstimator(pre.State())
				if err != nil {
					t.Fatal(err)
				}
				for off := cut; off < len(xs); off += chunk {
					have = got.PushColumns(xs[off:min(off+chunk, len(xs))], have)
				}
				what := fmt.Sprintf("%v restore@%d chunk=%d", radii, cut, chunk)
				requireSameBits(t, what, have, want)
				if !reflect.DeepEqual(got.State(), ref.State()) {
					t.Fatalf("%s: estimator state diverged", what)
				}
			}
		}
	}
}

// FuzzPushColumns is the differential fuzz target of the columnar
// estimator: an arbitrary finite series, fed through PushColumns in
// arbitrary chunkings — interleaved with per-sample Push and with
// snapshot/restore round trips — must emit alphas bit-identical to
// per-sample Push and end in the same State().
//
// ladder picks one of parityLadders. The first data byte picks the
// sample encoding: small integers (even, dense in ties, plateaus and
// signed zeros) or raw float64 bits (odd, non-finite values mapped to
// 0). Each plan byte is one step: 0 pushes one sample, 255 round-trips
// the state through State/Restore, anything else is a PushColumns batch
// of that many samples.
func FuzzPushColumns(f *testing.F) {
	seed := make([]byte, 400)
	rng := rand.New(rand.NewSource(1))
	rng.Read(seed)
	seed[0] = 0
	f.Add(uint8(0), []byte{64, 0, 0, 255, 3, 200}, seed)
	f.Add(uint8(2), []byte{1, 255, 7, 0, 100}, seed)
	seed2 := append([]byte(nil), seed...)
	seed2[0] = 1
	f.Add(uint8(3), []byte{17, 254}, seed2)
	f.Add(uint8(4), []byte{128}, []byte{0, 0x80, 0, 0x80, 1, 0x80, 0, 0, 0x80, 3, 0x80, 0x80, 0, 0})
	f.Fuzz(func(t *testing.T, ladder uint8, plan, data []byte) {
		if len(data) == 0 || len(plan) == 0 {
			return
		}
		var xs []float64
		if data[0]%2 == 0 {
			for _, b := range data[1:] {
				v := float64(int8(b))
				if b == 0x80 {
					v = math.Copysign(0, -1)
				}
				xs = append(xs, v)
			}
		} else {
			for i := 1; i+8 <= len(data); i += 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				xs = append(xs, v)
			}
		}
		radii := parityLadders[int(ladder)%len(parityLadders)]
		ref, err := NewOscillationEstimator(radii)
		if err != nil {
			t.Fatal(err)
		}
		want := pushAll(t, ref, xs)
		got, _ := NewOscillationEstimator(radii)
		var have []float64
		for off, step := 0, 0; off < len(xs); step++ {
			switch b := plan[step%len(plan)]; b {
			case 0:
				if a, ok := got.Push(xs[off]); ok {
					have = append(have, a)
				}
				off++
			case 255:
				if got, err = RestoreOscillationEstimator(got.State()); err != nil {
					t.Fatal(err)
				}
			default:
				end := min(off+int(b), len(xs))
				have = got.PushColumns(xs[off:end], have)
				off = end
			}
		}
		requireSameBits(t, fmt.Sprintf("%v plan %v", radii, plan), have, want)
		if !reflect.DeepEqual(got.State(), ref.State()) {
			t.Fatalf("%v plan %v: estimator state diverged", radii, plan)
		}
	})
}
