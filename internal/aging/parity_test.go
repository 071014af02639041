package aging

import (
	"bytes"
	"math/rand"
	"testing"

	"agingmf/internal/memsim"
	"agingmf/internal/series"
	"agingmf/internal/workload"
)

// Online/offline/batch parity: the offline Analyze path, the
// sample-at-a-time Add path, AddColumns at assorted column sizes, and
// bounded-history mode all drive the same internal/stream kernel, and
// must produce identical jumps and phases — not merely close, identical,
// including the serialized monitor state where the configs coincide.

// memsimTrace simulates one machine and returns its free-memory trace.
func memsimTrace(t *testing.T, seed int64, n int) []float64 {
	t.Helper()
	m, err := memsim.New(memsim.DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.NewDriver(m, workload.DefaultDriverConfig(), nil, rand.New(rand.NewSource(seed+1e6)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 0, n)
	for len(out) < n {
		c, err := d.Step()
		if err != nil {
			break // crash is the machine's natural endpoint
		}
		out = append(out, c.FreeMemoryBytes)
	}
	if len(out) < 2000 {
		t.Fatalf("memsim trace too short: %d samples", len(out))
	}
	return out
}

func addAll(t *testing.T, cfg Config, xs []float64) *Monitor {
	t.Helper()
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range xs {
		mon.Add(v)
	}
	return mon
}

func saveBytes(t *testing.T, m *Monitor) []byte {
	t.Helper()
	blob, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func sameJumps(t *testing.T, label string, got, want []Jump) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jumps, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: jump %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestMonitorParityAcrossEntryPoints(t *testing.T) {
	traces := map[string][]float64{
		"regime-change": regimeChangeSignal(t, 8000, 91),
		"memsim":        memsimTrace(t, 92, 8000),
	}
	configs := map[string]Config{
		"shewhart": fixtureConfig(DetectShewhart, 0),
		"cusum":    fixtureConfig(DetectCUSUM, 0),
	}
	for tname, xs := range traces {
		for cname, cfg := range configs {
			t.Run(tname+"/"+cname, func(t *testing.T) {
				ref := addAll(t, cfg, xs)
				refJumps := ref.Jumps()
				refBlob := saveBytes(t, ref)
				if len(refJumps) == 0 {
					t.Fatal("reference monitor never jumped; parity test is vacuous")
				}

				// Offline Analyze over the same trace.
				res, err := Analyze(series.Series{Name: "p", Values: xs}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameJumps(t, "Analyze", res.Jumps, refJumps)
				if res.FinalPhase != ref.Phase() {
					t.Fatalf("Analyze phase %v, want %v", res.FinalPhase, ref.Phase())
				}
				if want := ref.HolderValues(); !floatsEqual(res.Holder.Values, want) {
					t.Fatal("Analyze Hölder trajectory diverged from Add path")
				}
				if want := ref.VolatilityValues(); !floatsEqual(res.Volatility.Values, want) {
					t.Fatal("Analyze volatility series diverged from Add path")
				}

				// AddColumns at assorted column sizes, including a
				// trailing partial column.
				for _, bs := range []int{1, 2, 7, 64, 333} {
					mon, err := NewMonitor(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var jumps []Jump
					for i := 0; i < len(xs); i += bs {
						end := min(i+bs, len(xs))
						jumps = append(jumps, mon.AddColumns(xs[i:end])...)
					}
					sameJumps(t, "AddColumns", jumps, refJumps)
					sameJumps(t, "AddColumns/Jumps()", mon.Jumps(), refJumps)
					if mon.Phase() != ref.Phase() {
						t.Fatalf("AddColumns(%d) phase %v, want %v", bs, mon.Phase(), ref.Phase())
					}
					if !bytes.Equal(saveBytes(t, mon), refBlob) {
						t.Fatalf("AddColumns(%d) state serialized differently from Add path", bs)
					}
				}

				// Bounded-history mode: same detections, smaller memory.
				cfgB := cfg
				cfgB.HistoryLimit = 256
				bounded := addAll(t, cfgB, xs)
				sameJumps(t, "bounded", bounded.Jumps(), refJumps)
				if bounded.Phase() != ref.Phase() {
					t.Fatalf("bounded phase %v, want %v", bounded.Phase(), ref.Phase())
				}
			})
		}
	}
}

func TestDualMonitorBatchParity(t *testing.T) {
	free := regimeChangeSignal(t, 6000, 93)
	swap := memsimTrace(t, 94, 6000)
	n := min(len(free), len(swap))
	pairs := make([][2]float64, n)
	for i := 0; i < n; i++ {
		pairs[i] = [2]float64{free[i], swap[i]}
	}
	cfg := fixtureConfig(DetectShewhart, 0)
	ref, err := NewDualMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		ref.Add(p[0], p[1])
	}
	refBlob, err := ref.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Jumps()) == 0 {
		t.Fatal("reference dual monitor never jumped; parity test is vacuous")
	}
	for _, bs := range []int{1, 5, 128} {
		dual, err := NewDualMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var jumps []DualJump
		for i := 0; i < n; i += bs {
			end := min(i+bs, n)
			jumps = append(jumps, dual.AddColumns(free[i:end], swap[i:end])...)
		}
		want := ref.Jumps()
		if len(jumps) != len(want) {
			t.Fatalf("AddColumns(%d): %d jumps, want %d", bs, len(jumps), len(want))
		}
		for i := range jumps {
			if jumps[i] != want[i] {
				t.Fatalf("AddColumns(%d): jump %d = %+v, want %+v", bs, i, jumps[i], want[i])
			}
		}
		blob, err := dual.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, refBlob) {
			t.Fatalf("AddColumns(%d) dual state serialized differently from Add path", bs)
		}
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
