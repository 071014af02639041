package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/detect"
	transport "agingmf/internal/source"
	"agingmf/internal/trace"
)

// TestFlightRecorderSplitMatchesPerSample pins the one shard handler's
// split: an untraced unit folds all but its last FlightRecorderDepth
// samples through the columnar kernel and annotates only that tail, and
// a traced unit is annotated whole. Over binary frames and text units
// of 1, d-1, d, d+1 and 4d samples, traced and untraced, the recorder's
// records (wall time aside) and the detector state must equal an oracle
// that feeds and annotates every sample one at a time.
func TestFlightRecorderSplitMatchesPerSample(t *testing.T) {
	const d = 8
	sizes := []int{1, d - 1, d, d + 1, 4 * d}
	suites := [][]string{nil, {detect.KindHolder, detect.KindEntropy, detect.KindAdaptive}}
	for _, kinds := range suites {
		for _, traced := range []bool{false, true} {
			for _, wire := range []string{"binary", "text"} {
				name := fmt.Sprintf("%v/traced=%v/%s", kinds, traced, wire)
				t.Run(name, func(t *testing.T) {
					splitRecorderRun(t, kinds, traced, wire, d, sizes)
				})
			}
		}
	}
}

func splitRecorderRun(t *testing.T, kinds []string, traced bool, wire string, d int, sizes []int) {
	cfg := Config{Shards: 1, Monitor: testMonitorConfig(), Detectors: kinds, FlightRecorderDepth: d}
	if traced {
		cfg.TraceSampleEvery = 1
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	rc := reg.Config()
	oracle, err := detect.New(rc.Detectors, rc.DetectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	const id = "r"
	tr := testTrace(11, 600)
	var want []trace.Record
	unitEnd := make(map[int]bool) // index into want of each unit's last sample
	for u, off := 0, 0; off < len(tr); u++ {
		unit := tr[off:min(off+sizes[u%len(sizes)], len(tr))]
		off += len(unit)
		var err error
		switch {
		case wire == "binary":
			cb := transport.AcquireColumnarBatch()
			appendPairs(cb, Batch{Source: id, Pairs: unit})
			err = reg.IngestColumns(cb)
		case len(unit) == 1:
			err = reg.IngestLine("", FormatLine(Sample{Source: id, Free: unit[0][0], Swap: unit[0][1]}))
		default:
			err = reg.IngestLine("", FormatBatch(Batch{Source: id, Pairs: unit}))
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range unit {
			events := oracle.Add(p[0], p[1])
			jumps := 0
			for _, ev := range events {
				if ev.Kind == detect.EventJump {
					jumps++
				}
			}
			scoreFree, scoreSwap := oracle.LastStats()
			want = append(want, trace.Record{
				Seq:       uint64(oracle.SamplesSeen()),
				Free:      p[0],
				Swap:      p[1],
				ScoreFree: scoreFree,
				ScoreSwap: scoreSwap,
				Phase:     oracle.Phase().String(),
				Jumps:     jumps,
			})
		}
		unitEnd[len(want)-1] = true
		if err := reg.Drain(); err != nil {
			t.Fatal(err)
		}
		got, err := reg.FlightRecords(id)
		if err != nil {
			t.Fatal(err)
		}
		tail := want[max(0, len(want)-d):]
		if len(got) != len(tail) {
			t.Fatalf("unit %d: recorder holds %d records, want %d", u, len(got), len(tail))
		}
		for i := range got {
			idx := len(want) - len(tail) + i
			// A traced unit stamps its trace sequence and stage timings on
			// its last record; those are the only per-run differences.
			if stamped := got[i].TraceSeq != 0; stamped != (traced && unitEnd[idx]) {
				t.Fatalf("unit %d record %d: TraceSeq %d (traced %v, unit end %v)",
					u, idx, got[i].TraceSeq, traced, unitEnd[idx])
			}
			got[i].Wall, got[i].TraceSeq, got[i].StageNs = 0, 0, [trace.NumStages]int64{}
		}
		if !reflect.DeepEqual(got, tail) {
			t.Fatalf("unit %d (%d samples): records diverged from the per-sample oracle\n got %+v\nwant %+v",
				u, len(unit), got, tail)
		}
	}
	gotState, err := reg.MonitorState(id)
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := oracle.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, wantState) {
		t.Fatal("detector state diverged from the per-sample oracle")
	}
	if jumps := oracle.Jumps(); jumps == 0 {
		t.Fatal("oracle fired no jumps; the trace does not exercise verdict records")
	}
}

// TestSourceReservedBeforeFirstShardPass pins ownership without a
// window: a source is visible — to Source, DetachSource and
// AttachSource — from the moment its first unit is accepted, not from
// its shard's first pass over it. The shard is parked on a control
// message so the accepted unit provably waits in the queue; a detach
// issued in that window must still carry the unit's samples, and an
// attach must see the reservation as an existing source.
func TestSourceReservedBeforeFirstShardPass(t *testing.T) {
	cfg := testMonitorConfig()
	r, err := NewRegistry(Config{Shards: 1, Monitor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	park := func() chan struct{} {
		gate := make(chan struct{})
		r.shards[0].ch <- shardMsg{ctl: &ctlMsg{fn: func(*shard) { <-gate }, done: make(chan struct{})}}
		return gate
	}
	tr := testTrace(3, 40)

	gate := park()
	if err := r.IngestBatch(Batch{Source: "fresh", Pairs: tr}); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Source("fresh"); !ok {
		t.Fatal("accepted source invisible before its shard's first pass")
	}
	type detached struct {
		blob []byte
		err  error
	}
	done := make(chan detached, 1)
	go func() {
		blob, _, err := r.DetachSource("fresh")
		done <- detached{blob, err}
	}()
	waitQueued(t, r.shards[0], 2) // the unit, then the detach behind it
	close(gate)
	got := <-done
	if got.err != nil {
		t.Fatalf("detach between accept and first shard pass: %v", got.err)
	}
	if !bytes.Equal(got.blob, referenceState(t, cfg, tr)) {
		t.Fatal("detached state lost the accepted unit")
	}
	if _, ok := r.Source("fresh"); ok {
		t.Fatal("source still visible after detach")
	}

	gate = park()
	if err := r.Ingest(Sample{Source: "again", Free: 1, Swap: 2}); err != nil {
		t.Fatal(err)
	}
	attached := make(chan error, 1)
	go func() { attached <- r.AttachSource("again", nil, nil) }()
	waitQueued(t, r.shards[0], 2)
	close(gate)
	if err := <-attached; !errors.Is(err, ErrSourceExists) {
		t.Fatalf("attach over a reservation: err = %v, want ErrSourceExists", err)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if st, ok := r.Source("again"); !ok || st.Samples != 1 {
		t.Fatalf("reserved source after its first pass: ok=%v %+v", ok, st)
	}
	if r.NumSources() != 1 {
		t.Fatalf("NumSources = %d, want 1", r.NumSources())
	}
}

// waitQueued waits until n messages sit in the shard's queue.
func waitQueued(t *testing.T, sh *shard, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(sh.ch) < n {
		if time.Now().After(deadline) {
			t.Fatalf("shard queue holds %d messages, want %d", len(sh.ch), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdaptiveInheritsHistoryLimit pins that Config.Monitor — agingd's
// -history-limit — reaches the adaptive detector when Detect.Adaptive
// is left zero: after 20k samples its inner monitors' histories stay
// within twice the limit instead of growing with the stream.
func TestAdaptiveInheritsHistoryLimit(t *testing.T) {
	const limit = 512
	mcfg := aging.DefaultConfig()
	mcfg.HistoryLimit = limit
	r, err := NewRegistry(Config{Shards: 1, Monitor: mcfg, Detectors: []string{detect.KindAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tr := testTrace(7, 20000)
	for off := 0; off < len(tr); off += 1000 {
		if err := r.IngestBatch(Batch{Source: "a", Pairs: tr[off : off+1000]}); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := r.MonitorState("a")
	if err != nil {
		t.Fatal(err)
	}
	set, err := detect.RestoreMonitorSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	if set.SamplesSeen() != len(tr) {
		t.Fatalf("SamplesSeen = %d, want %d", set.SamplesSeen(), len(tr))
	}
	free, swap := set.Lookup(detect.KindAdaptive).(*detect.Adaptive).Monitors()
	for name, m := range map[string]*aging.Monitor{"free": free, "swap": swap} {
		if got := m.Config().HistoryLimit; got != limit {
			t.Errorf("%s: HistoryLimit = %d, want %d", name, got, limit)
		}
		if h, v := len(m.HolderValues()), len(m.VolatilityValues()); h > 2*limit || v > 2*limit {
			t.Errorf("%s: histories hold %d alphas and %d volatilities, want <= %d", name, h, v, 2*limit)
		}
	}
}

// TestConcurrentFirstContactReservesOnce races many producers onto one
// new source: exactly one reservation wins, every sample lands in it,
// and the population counts it once.
func TestConcurrentFirstContactReservesOnce(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 2, Monitor: testMonitorConfig(), StallTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const producers, each = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := r.Ingest(Sample{Source: "shared", Free: float64(p*each + i), Swap: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.NumSources() != 1 {
		t.Fatalf("NumSources = %d, want 1", r.NumSources())
	}
	if st, ok := r.Source("shared"); !ok || st.Samples != producers*each {
		t.Fatalf("shared source: ok=%v samples=%d, want %d", ok, st.Samples, producers*each)
	}
}
