package aging

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// saveState is SaveState for tests.
func saveState(t *testing.T, m *Monitor) []byte {
	t.Helper()
	b, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMonitorRejectsNonFinite pins the non-finite rule on every Monitor
// entry point. A NaN fed to the estimator poisons every window it passes
// through, and the per-sample and columnar extrema kernels order it
// differently, so without the rule Add and AddColumns diverge bit-wise
// on a noisy trace at the default ladder in 4096-sample chunks. Add,
// AddColumns (short and long columns) and AddTraced must each leave the
// monitor byte-for-byte equal to feeding only the finite samples, and
// count the same rejections.
func TestMonitorRejectsNonFinite(t *testing.T) {
	cfg := DefaultConfig()
	dirty := volatileTrace(31, 20000)
	bad := map[int]float64{
		4100: math.NaN(), 9000: math.NaN(), 15001: math.NaN(),
		6000: math.Inf(1), 12000: math.Inf(-1),
	}
	var clean []float64
	for i, x := range dirty {
		if v, ok := bad[i]; ok {
			dirty[i] = v
			continue
		}
		clean = append(clean, x)
	}
	ref, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range clean {
		ref.Add(x)
	}
	want := saveState(t, ref)

	feeds := map[string]func(m *Monitor){
		"Add": func(m *Monitor) {
			for _, x := range dirty {
				m.Add(x)
			}
		},
		"AddTraced": func(m *Monitor) {
			var tm StageNanos
			for _, x := range dirty {
				m.AddTraced(x, &tm)
			}
		},
		"AddColumns/7": func(m *Monitor) {
			for off := 0; off < len(dirty); off += 7 {
				m.AddColumns(dirty[off:min(off+7, len(dirty))])
			}
		},
		"AddColumns/4096": func(m *Monitor) {
			for off := 0; off < len(dirty); off += 4096 {
				m.AddColumns(dirty[off:min(off+4096, len(dirty))])
			}
		},
		"AddColumns/whole": func(m *Monitor) { m.AddColumns(dirty) },
	}
	for name, feed := range feeds {
		m, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(m)
		if got := m.Rejected(); got != len(bad) {
			t.Errorf("%s: Rejected() = %d, want %d", name, got, len(bad))
		}
		if m.SamplesSeen() != len(clean) {
			t.Errorf("%s: SamplesSeen() = %d, want %d", name, m.SamplesSeen(), len(clean))
		}
		if !bytes.Equal(saveState(t, m), want) {
			t.Errorf("%s: state diverged from the finite-only reference", name)
		}
	}
}

// TestDualMonitorRejectsNonFinitePairs pins the pair form of the rule: a
// pair with a non-finite counter is rejected whole on every DualMonitor
// entry point, so the two streams stay index-aligned and AddColumns
// still merges jumps in Add's per-pair order.
func TestDualMonitorRejectsNonFinitePairs(t *testing.T) {
	cfg := columnarTestConfig()
	free := volatileTrace(21, 1200)
	swap := volatileTrace(22, 1200)
	free[100], swap[300], free[650], swap[650] = math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()
	const rejected = 3
	pairs := make([][2]float64, len(free))
	for i := range pairs {
		pairs[i] = [2]float64{free[i], swap[i]}
	}
	ref, err := NewDualMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []DualJump
	for _, p := range pairs {
		want = append(want, ref.Add(p[0], p[1])...)
	}
	if len(want) < 2 {
		t.Fatalf("reference fired %d jumps; need at least 2 to exercise the merge", len(want))
	}
	wantState, err := ref.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	feeds := map[string]func(d *DualMonitor) []DualJump{
		"Add": func(d *DualMonitor) []DualJump {
			var got []DualJump
			for _, p := range pairs {
				got = append(got, d.Add(p[0], p[1])...)
			}
			return got
		},
		"AddTraced": func(d *DualMonitor) []DualJump {
			var got []DualJump
			for _, p := range pairs {
				got = append(got, d.AddTraced(p[0], p[1], nil)...)
			}
			return got
		},
		"AddColumns/97": func(d *DualMonitor) []DualJump {
			var got []DualJump
			for off := 0; off < len(free); off += 97 {
				end := min(off+97, len(free))
				got = append(got, d.AddColumns(free[off:end], swap[off:end])...)
			}
			return got
		},
	}
	for name, feed := range feeds {
		d, err := NewDualMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := feed(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: dual jumps %v, want %v", name, got, want)
		}
		gotState, err := d.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotState, wantState) {
			t.Fatalf("%s: dual SaveState diverged", name)
		}
		if d.Rejected() != rejected || ref.Rejected() != rejected {
			t.Fatalf("%s: Rejected() = %d (reference %d), want %d", name, d.Rejected(), ref.Rejected(), rejected)
		}
		if d.SamplesSeen() != len(pairs)-rejected {
			t.Fatalf("%s: SamplesSeen() = %d, want %d", name, d.SamplesSeen(), len(pairs)-rejected)
		}
	}
}
