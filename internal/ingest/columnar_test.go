package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"agingmf/internal/detect"
	transport "agingmf/internal/source"
)

// columnarTestPairs is an aging-shaped trace (decay plus noise) that
// exercises the detectors, bit-identical however it travels.
func columnarTestPairs(n int) [][2]float64 {
	pairs := make([][2]float64, n)
	for i := range pairs {
		noise := float64((i*2654435761)%1024) - 512
		pairs[i] = [2]float64{1e9 - float64(i)*1e4 + noise, float64(i % 7)}
	}
	return pairs
}

// frameOf encodes pairs as one binary frame for source id.
func frameOf(t testing.TB, id string, pairs [][2]float64) []byte {
	t.Helper()
	cb := transport.AcquireColumnarBatch()
	defer cb.Release()
	cb.Source = id
	for _, p := range pairs {
		cb.Free = append(cb.Free, p[0])
		cb.Swap = append(cb.Swap, p[1])
	}
	frame, err := transport.AppendFrame(nil, cb)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestIngestColumnsParity pins the tentpole property at the registry
// boundary: the same samples pushed as columnar batches or as text
// batches leave every source's detector state byte-for-byte identical.
func TestIngestColumnsParity(t *testing.T) {
	pairs := columnarTestPairs(900)
	cfg := Config{Shards: 2, Monitor: testMonitorConfig()}

	text, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer text.Close()
	if err := text.IngestBatch(Batch{Source: "m-1", Pairs: pairs}); err != nil {
		t.Fatal(err)
	}

	cols, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cols.Close()
	for off := 0; off < len(pairs); off += 128 {
		end := off + 128
		if end > len(pairs) {
			end = len(pairs)
		}
		cb := transport.AcquireColumnarBatch()
		cb.Source = "m-1"
		for _, p := range pairs[off:end] {
			cb.Free = append(cb.Free, p[0])
			cb.Swap = append(cb.Swap, p[1])
		}
		if err := cols.IngestColumns(cb); err != nil {
			t.Fatal(err)
		}
	}
	if err := text.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := cols.Drain(); err != nil {
		t.Fatal(err)
	}
	want, err := text.MonitorState("m-1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cols.MonitorState("m-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("columnar ingest diverged from text batch ingest")
	}
	if acc := cols.Accepted(); acc != uint64(len(pairs)) {
		t.Fatalf("accepted %d, want %d", acc, len(pairs))
	}
}

// TestIngestColumnsRejects covers the data-validation boundary: missing
// or invalid source ids and non-finite samples are refused before any
// shard sees them, and the batch is released either way (the pool would
// panic loudly enough under -race if it were double-released).
func TestIngestColumnsRejects(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 1, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mk := func(id string, free float64) *transport.ColumnarBatch {
		cb := transport.AcquireColumnarBatch()
		cb.Source = id
		cb.Free = append(cb.Free, free)
		cb.Swap = append(cb.Swap, 0)
		return cb
	}
	if err := r.IngestColumns(mk("", 1)); !errors.Is(err, ErrNoSource) {
		t.Fatalf("empty source: %v", err)
	}
	if err := r.IngestColumns(mk("bad id", 1)); !errors.Is(err, ErrBadLine) {
		t.Fatalf("invalid source: %v", err)
	}
	if err := r.IngestColumns(mk("ok", math.NaN())); !errors.Is(err, ErrBadSample) {
		t.Fatalf("NaN sample: %v", err)
	}
	empty := transport.AcquireColumnarBatch()
	if err := r.IngestColumns(empty); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if n := r.Accepted(); n != 0 {
		t.Fatalf("accepted %d, want 0", n)
	}
}

// TestIngestColumnsBackpressure pins the oversized-frame contract: a
// frame bigger than the whole shard queue budget still travels as ONE
// message — when the queue is full the producer blocks until the shard
// drains, and the frame is never split or silently dropped.
func TestIngestColumnsBackpressure(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 1, QueueSize: 1, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Park the shard goroutine so nothing drains, then fill the
	// one-slot queue.
	gate := make(chan struct{})
	parked := &ctlMsg{fn: func(*shard) { <-gate }, done: make(chan struct{})}
	r.shards[0].ch <- shardMsg{ctl: parked}
	if err := r.Ingest(Sample{Source: "bp", Free: 1, Swap: 0}); err != nil {
		t.Fatal(err)
	}

	// A frame carrying far more samples than the queue could ever hold
	// (4096 pairs vs QueueSize 1) must block the producing call whole.
	pairs := columnarTestPairs(4096)
	cb := transport.AcquireColumnarBatch()
	cb.Source = "bp"
	for _, p := range pairs {
		cb.Free = append(cb.Free, p[0])
		cb.Swap = append(cb.Swap, p[1])
	}
	done := make(chan error, 1)
	go func() { done <- r.IngestColumns(cb) }()
	select {
	case err := <-done:
		t.Fatalf("oversized frame did not block (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(gate) // shard resumes; queue drains; the blocked send lands
	<-parked.done
	if err := <-done; err != nil {
		t.Fatalf("blocked ingest: %v", err)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if acc, drop := r.Accepted(), r.Dropped(); acc != uint64(1+len(pairs)) || drop != 0 {
		t.Fatalf("accepted %d dropped %d, want %d/0 — frame split or dropped",
			acc, drop, 1+len(pairs))
	}
	st, ok := r.Source("bp")
	if !ok || st.Samples != int64(1+len(pairs)) {
		t.Fatalf("source status %+v — frame not delivered whole", st)
	}
}

// TestServerBinaryNegotiation drives the real TCP listener with both
// wires at once: a binary-frame connection and a text connection land
// in the same registry, and the binary source's detector state matches
// a text-fed twin byte-for-byte.
func TestServerBinaryNegotiation(t *testing.T) {
	srv := startTestServer(t, nil)
	pairs := columnarTestPairs(600)

	bin, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	var wire []byte
	for off := 0; off < len(pairs); off += 200 {
		wire = append(wire, frameOf(t, "bin-1", pairs[off:off+200])...)
	}
	if _, err := bin.Write(wire); err != nil {
		t.Fatal(err)
	}

	txt, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer txt.Close()
	if _, err := fmt.Fprintf(txt, "%s\n", FormatBatch(Batch{Source: "txt-1", Pairs: pairs})); err != nil {
		t.Fatal(err)
	}

	waitAccepted(t, srv.Registry(), uint64(2*len(pairs)))
	got, err := srv.Registry().MonitorState("bin-1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Registry().MonitorState("txt-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("binary-fed detector state diverged from text-fed twin")
	}
	if bf := srv.Registry().BadFrames(); bf != 0 {
		t.Fatalf("bad frames = %d, want 0", bf)
	}
}

// TestServerBinaryDefaultSource pins the transport-default rule: a
// frame with an empty source id is attributed to the peer host, like a
// source-less text line.
func TestServerBinaryDefaultSource(t *testing.T) {
	srv := startTestServer(t, nil)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameOf(t, "", columnarTestPairs(8))); err != nil {
		t.Fatal(err)
	}
	waitAccepted(t, srv.Registry(), 8)
	if st, ok := srv.Registry().Source("127.0.0.1"); !ok || st.Samples != 8 {
		t.Fatalf("peer-keyed status: ok=%v %+v", ok, st)
	}
}

// TestServerBinaryCRCReject corrupts one frame mid-stream: the frame is
// rejected whole and counted by reason, while the frames around it are
// ingested — the length framing preserves the boundary.
func TestServerBinaryCRCReject(t *testing.T) {
	srv := startTestServer(t, nil)
	pairs := columnarTestPairs(30)
	good1 := frameOf(t, "crc-1", pairs[:10])
	bad := frameOf(t, "crc-1", pairs[10:20])
	bad[len(bad)-1] ^= 0xff
	good2 := frameOf(t, "crc-1", pairs[20:])

	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire := append(append(append([]byte(nil), good1...), bad...), good2...)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	waitAccepted(t, srv.Registry(), 20)
	st, ok := srv.Registry().Source("crc-1")
	if !ok || st.Samples != 20 {
		t.Fatalf("source status: ok=%v %+v, want 20 samples", ok, st)
	}
	if bf := srv.Registry().BadFrames(); bf != 1 {
		t.Fatalf("bad frames = %d, want 1", bf)
	}
}

// TestServerBinaryTooLargeCloses pins the frame-size bound: a frame
// declaring more than MaxLineBytes poisons the connection (counted,
// then closed), exactly like an over-long text line.
func TestServerBinaryTooLargeCloses(t *testing.T) {
	srv := startTestServer(t, func(c *ServerConfig) { c.MaxLineBytes = 256 })
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameOf(t, "big", columnarTestPairs(4096))); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open past the frame-size bound")
	}
	if bf := srv.Registry().BadFrames(); bf != 1 {
		t.Fatalf("bad frames = %d, want 1", bf)
	}
	if acc := srv.Registry().Accepted(); acc != 0 {
		t.Fatalf("accepted %d samples from an over-long frame", acc)
	}
}

// FuzzBinaryFrame is the differential fuzz target of the columnar wire:
// any byte string that decodes as a frame must (1) re-encode and decode
// to bit-identical columns, (2) produce byte-identical detector state
// and verdicts whether the samples travel as the frame or as the
// equivalent text batch line, and (3) reject whole on a flipped CRC.
func FuzzBinaryFrame(f *testing.F) {
	for _, n := range []int{1, 3, 64} {
		frame, err := transport.AppendFrame(nil, &transport.ColumnarBatch{
			Source: "fz",
			Free:   columnsOf(columnarTestPairs(n), 0),
			Swap:   columnsOf(columnarTestPairs(n), 1),
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte("batch;source=x;1 2;3 4"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cb := transport.AcquireColumnarBatch()
		defer cb.Release()
		if err := transport.DecodeFrame(data, cb, nil); err != nil {
			return // rejects are fine; crashes and false accepts are not
		}
		if cb.Len() == 0 || cb.Len() > 4096 {
			return
		}
		// (1) Round trip.
		frame, err := transport.AppendFrame(nil, cb)
		if err != nil {
			t.Fatalf("decoded batch failed to re-encode: %v", err)
		}
		again := transport.AcquireColumnarBatch()
		defer again.Release()
		if err := transport.DecodeFrame(frame, again, nil); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		for i := range cb.Free {
			if math.Float64bits(again.Free[i]) != math.Float64bits(cb.Free[i]) ||
				math.Float64bits(again.Swap[i]) != math.Float64bits(cb.Swap[i]) {
				t.Fatalf("sample %d changed across re-encode", i)
			}
		}
		// (3) A flipped CRC rejects the whole frame.
		frame[len(frame)-1] ^= 0x01
		if err := transport.DecodeFrame(frame, &transport.ColumnarBatch{}, nil); !errors.Is(err, transport.ErrFrameCRC) {
			t.Fatalf("corrupt CRC accepted: %v", err)
		}
		// (2) Differential detection: frame columns vs the text form.
		finite := true
		for i := range cb.Free {
			if math.IsNaN(cb.Free[i]) || math.IsInf(cb.Free[i], 0) ||
				math.IsNaN(cb.Swap[i]) || math.IsInf(cb.Swap[i], 0) {
				finite = false
				break
			}
		}
		if !finite {
			return // the registry refuses these on both wires
		}
		line := FormatBatch(Batch{Source: "fz", Pairs: cb.AppendPairs(nil)})
		parsed, err := ParseBatch(line)
		if err != nil {
			t.Fatalf("text form of decoded frame did not parse: %v", err)
		}
		cfg := testMonitorConfig()
		viaCols, err := detect.New(nil, detect.Config{Monitor: cfg})
		if err != nil {
			t.Fatal(err)
		}
		viaText, err := detect.New(nil, detect.Config{Monitor: cfg})
		if err != nil {
			t.Fatal(err)
		}
		evCols := viaCols.AddColumns(cb.Free, cb.Swap)
		var evText []detect.Event
		for _, p := range parsed.Pairs {
			evText = append(evText, viaText.Add(p[0], p[1])...)
		}
		if len(evCols) != len(evText) {
			t.Fatalf("verdicts diverged: %d columnar vs %d text events", len(evCols), len(evText))
		}
		for i := range evCols {
			if evCols[i] != evText[i] {
				t.Fatalf("event %d diverged: %+v vs %+v", i, evCols[i], evText[i])
			}
		}
		sCols, err := viaCols.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		sText, err := viaText.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sCols, sText) {
			t.Fatal("detector state diverged between the binary and text wires")
		}
	})
}

// columnsOf projects one column out of row pairs.
func columnsOf(pairs [][2]float64, col int) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = p[col]
	}
	return out
}
