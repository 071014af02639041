package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"agingmf/internal/obs"
)

func TestStageStrings(t *testing.T) {
	want := []string{
		"source.next", "parse", "queue", "stream.est", "stream.vol",
		"stream.std", "stream.gate", "detect", "alerts", "migrate",
	}
	for s := Stage(0); s < NumStages; s++ {
		if got := s.String(); got != want[s] {
			t.Errorf("Stage(%d).String() = %q, want %q", s, got, want[s])
		}
	}
	if got := Stage(99).String(); got != "stage(99)" {
		t.Errorf("unknown stage = %q", got)
	}
}

func TestSamplingCadence(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	var seqs []uint64
	for i := 0; i < 100; i++ {
		if seq := tr.Sample(); seq != 0 {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) != 25 {
		t.Fatalf("sampled %d/100 units at 1/4, want 25", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, seq, i+1)
		}
	}
	if every := tr.SampleEvery(); every != 4 {
		t.Errorf("SampleEvery() = %d, want 4", every)
	}
}

func TestSampleEveryOneTracesEverything(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	for i := 1; i <= 5; i++ {
		if seq := tr.Sample(); seq != uint64(i) {
			t.Fatalf("Sample() #%d = %d, want %d", i, seq, i)
		}
	}
}

func TestSpanRingWrap(t *testing.T) {
	tr := New(Config{SampleEvery: 1, SpanCapacity: 4})
	start := time.Now()
	for i := 1; i <= 6; i++ {
		tr.Record(StageDetect, "s", 0, uint64(i), start, time.Duration(i))
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := uint64(i + 3); sp.Seq != want {
			t.Errorf("span[%d].Seq = %d, want %d (oldest first)", i, sp.Seq, want)
		}
	}
	if tr.Total() != 6 {
		t.Errorf("Total() = %d, want 6", tr.Total())
	}
}

func TestRecordIgnoresUnsampled(t *testing.T) {
	tr := New(Config{SampleEvery: 2})
	tr.Record(StageParse, "s", 0, 0, time.Now(), time.Microsecond)
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("seq 0 recorded %d spans, want 0", n)
	}
}

func TestNilTracerIsFreeAndSafe(t *testing.T) {
	var tr *Tracer
	if tr != New(Config{}) {
		t.Fatal("New with SampleEvery 0 must return nil")
	}
	if tr.Sample() != 0 || tr.SampleEvery() != 0 || tr.Total() != 0 || tr.Units() != 0 {
		t.Fatal("nil tracer must report disabled")
	}
	tr.Record(StageDetect, "s", 0, 1, time.Now(), time.Second)
	tr.QueueDepth(0, 1)
	if tr.Spans() != nil {
		t.Fatal("nil tracer Spans() must be nil")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer export: %v", err)
	}
	if !json.Valid(buf.Bytes()) || !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil tracer export invalid: %s", buf.String())
	}

	if n := testing.AllocsPerRun(1000, func() {
		tr.Sample()
		tr.Record(StageDetect, "s", 0, 1, time.Time{}, 0)
		tr.QueueDepth(0, 1)
	}); n != 0 {
		t.Errorf("nil tracer allocates %.1f per run, want 0", n)
	}
}

func TestEnabledHotPathAllocs(t *testing.T) {
	tr := New(Config{SampleEvery: 1024})
	// The common case — an unsampled unit — must not allocate; the
	// sampled units' ring writes must not either (the ring and its
	// strings are value copies).
	if n := testing.AllocsPerRun(5000, func() {
		if seq := tr.Sample(); seq != 0 {
			tr.Record(StageDetect, "src", 0, seq, time.Time{}, time.Microsecond)
		}
	}); n != 0 {
		t.Errorf("enabled tracer hot path allocates %.2f per run, want 0", n)
	}
}

func TestChromeExportValidatesAndObservesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{SampleEvery: 1, Obs: reg})
	seq := tr.Sample()
	tr.Record(StageQueue, "m1", 2, seq, time.Now(), 3*time.Microsecond)
	tr.QueueDepth(2, 7)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("exported %d events, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "queue" || ev.Ph != "X" || ev.Dur != 3 || ev.Tid != 3 {
		t.Errorf("bad event: %+v", ev)
	}

	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`agingmf_pipeline_stage_seconds_count{stage="queue"} 1`,
		`agingmf_shard_queue_depth{shard="2"} 7`,
		`agingmf_trace_spans_total 1`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, text.String())
		}
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := New(Config{SampleEvery: 2, SpanCapacity: 64})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if seq := tr.Sample(); seq != 0 {
					tr.Record(StageDetect, "s", 0, seq, time.Now(), time.Nanosecond)
				}
				if i%100 == 0 {
					tr.Spans()
				}
			}
		}()
	}
	wg.Wait()
	// 2000 units offered, 1 in 2 sampled: Units counts every offer,
	// Total only the recorded spans — the two must not be conflated.
	if tr.Units() != 2000 {
		t.Fatalf("Units() = %d, want 2000", tr.Units())
	}
	if tr.Total() != 1000 {
		t.Fatalf("Total() = %d, want 1000", tr.Total())
	}
}

func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(3)
	if fr.Depth() != 3 {
		t.Fatalf("Depth() = %d", fr.Depth())
	}
	fr.Push(Record{Seq: 1})
	fr.Append([]Record{{Seq: 2}, {Seq: 3}, {Seq: 4}, {Seq: 5}})
	recs := fr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if want := uint64(i + 3); r.Seq != want {
			t.Errorf("rec[%d].Seq = %d, want %d (oldest first)", i, r.Seq, want)
		}
	}
	if fr.Len() != 3 {
		t.Errorf("Len = %d, want 3", fr.Len())
	}
}

func TestFlightRecorderPartial(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Append([]Record{{Seq: 1}, {Seq: 2}})
	if got := fr.Snapshot(); len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("partial snapshot = %+v", got)
	}
	if fr.Len() != 2 {
		t.Errorf("Len() = %d, want 2", fr.Len())
	}
}

func TestNilFlightRecorderIsFreeAndSafe(t *testing.T) {
	if NewFlightRecorder(0) != nil || NewFlightRecorder(-1) != nil {
		t.Fatal("non-positive depth must return nil")
	}
	var fr *FlightRecorder
	fr.Push(Record{})
	fr.Append([]Record{{}})
	if fr.Snapshot() != nil || fr.Len() != 0 || fr.Depth() != 0 {
		t.Fatal("nil recorder must be empty")
	}
	recs := []Record{{Seq: 1}}
	if n := testing.AllocsPerRun(1000, func() {
		fr.Push(Record{})
		fr.Append(recs)
	}); n != 0 {
		t.Errorf("nil recorder allocates %.1f per run, want 0", n)
	}
}

func TestFlightRecorderAppendNoSteadyStateAllocs(t *testing.T) {
	fr := NewFlightRecorder(16)
	recs := make([]Record, 4)
	if n := testing.AllocsPerRun(1000, func() { fr.Append(recs) }); n != 0 {
		t.Errorf("Append allocates %.1f per run, want 0", n)
	}
}

func TestParseSampleRate(t *testing.T) {
	cases := []struct {
		in   string
		want int
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{"1", 1, false},
		{"1/1024", 1024, false},
		{" 1/64 ", 64, false},
		{"2/3", 0, true},
		{"1/0", 0, true},
		{"-5", 0, true},
		{"x", 0, true},
		{"1/x", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSampleRate(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSampleRate(%q) = (%d, %v), want (%d, err=%v)",
				c.in, got, err, c.want, c.err)
		}
	}
}
