package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/detect"
)

// smallPool is a cheap pool for the tests: two machines, a few lives.
func smallPool(t *testing.T, seed int64) *pool {
	t.Helper()
	p, err := buildPool(seed, 2, 6000, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func smallPlan(t *testing.T, seed int64, text bool) *wirePlan {
	t.Helper()
	return burstPlan(t, seed, text, 1)
}

func burstPlan(t *testing.T, seed int64, text bool, burst int) *wirePlan {
	t.Helper()
	p := smallPool(t, seed)
	rng := rand.New(rand.NewSource(seed))
	offs, err := pickOffsets(rng, p, 6, 1, 255, 1)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]trace, len(offs))
	for i, o := range offs {
		traces[i] = trace{p: p, offset: o, lead: 10, period: 256}
	}
	frame := 64
	if text {
		frame = 1
	}
	pl, err := buildPlan(planConfig{text: text, frame: frame, conns: 2, cycle: 256, burst: burst, base: 10, prefix: "t"}, traces)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestSeedDeterminesWireBytes(t *testing.T) {
	for _, text := range []bool{false, true} {
		a := smallPlan(t, 1, text)
		b := smallPlan(t, 1, text)
		c := smallPlan(t, 2, text)
		for i := range a.streams {
			if !bytes.Equal(a.streams[i], b.streams[i]) {
				t.Fatalf("text=%v: seed 1 gave different bytes on connection %d", text, i)
			}
		}
		if bytes.Equal(a.streams[0], c.streams[0]) {
			t.Fatalf("text=%v: seeds 1 and 2 gave identical bytes", text)
		}
	}
}

func TestHonestDataGuard(t *testing.T) {
	p := smallPool(t, 3)
	b := p.boots[1]
	tr := trace{p: p, offset: b - 5}
	if err := tr.checkHonest(0, 100); err != nil {
		t.Fatalf("window across a reboot rejected: %v", err)
	}
	if err := tr.checkHonest(10, 100); err == nil {
		t.Fatal("window without a reboot accepted")
	}
	ramp := &pool{free: make([]float64, 100), swap: make([]float64, 100), boots: []int{0, 50}, isBoot: make([]bool, 100)}
	ramp.isBoot[0], ramp.isBoot[50] = true, true
	for i := range ramp.free {
		ramp.free[i] = float64(1000 - i)
	}
	if err := (trace{p: ramp}).checkHonest(0, 100); err == nil {
		t.Fatal("constant-step ramp accepted")
	}
}

func TestHighestPercentile(t *testing.T) {
	cands := []float64{99, 95, 50}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{1000, 99, true}, {999, 95, true}, {200, 95, true}, {199, 50, true}, {20, 50, true}, {19, 0, false}} {
		got, ok := highestPercentile(c.n, cands)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%v %v, want p%v %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if b := beyond(1000, 99); b != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", b)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
}

func TestUnitLookup(t *testing.T) {
	pl := smallPlan(t, 4, false)
	for s := range pl.ids {
		for j, id := range pl.bySrc[s] {
			u := pl.units[id]
			for _, k := range []int{int(u.first), int(u.first + u.n - 1)} {
				round, got, ok := pl.unitOf(s, k)
				if !ok || round != 0 || got != id {
					t.Fatalf("source %d sample %d: unit %d round %d ok %v, want unit %d (index %d)", s, k, got, round, ok, id, j)
				}
				// The same position one round later rides the same unit
				// in round 1.
				if round, got, _ = pl.unitOf(s, k+pl.cycle); round != 1 || got != id {
					t.Fatalf("source %d sample %d+cycle: unit %d round %d", s, k, got, round)
				}
			}
		}
	}
	if _, _, ok := pl.unitOf(0, pl.base-1); ok {
		t.Fatal("a warm-lead sample mapped to a wire unit")
	}
	if _, _, ok := pl.unitOf(len(pl.ids), pl.base); ok {
		t.Fatal("an unknown source mapped to a wire unit")
	}
}

func TestPacedPosition(t *testing.T) {
	pl := smallPlan(t, 4, false) // 6 sources, 4 units each, 12 per connection
	// 64 samples × 2 connections at 128k samples/s: a unit every 1ms per
	// connection; a 20ms phase sends positions 0..19 of each connection.
	pc := newPaced(&workload{frame: 64, conns: 2, rate: 128000}, pl, 20*time.Millisecond)
	if pc.n != 20 || pc.rounds != 2 {
		t.Fatalf("n %d rounds %d, want 20 and 2", pc.n, pc.rounds)
	}
	const r0 = 3 // rounds sent before the phase
	const ms = time.Millisecond
	end := func(round, j int) int64 { return int64(pl.base + round*pl.cycle + (j+1)*pl.frame) }
	for _, c := range []struct {
		src     int
		samples int64
		conn, k int
		due     time.Duration
		ok      bool
	}{
		{1, end(r0, 0), 1, 0, ms / 2, true},         // connection 1 starts half an interval in
		{3, end(r0, 0), 1, 1, 3 * ms / 2, true},     // its second unit
		{3, end(r0+1, 2), 1, 19, 39 * ms / 2, true}, // position 12+7
		{5, end(r0+1, 2), 1, 20, 0, false},          // position 20: sent after the schedule
		{1, end(r0-1, 3), 0, 0, 0, false},           // a closed-loop round
		{0, end(r0, 1), 0, 3, 3 * ms, true},         // connection 0, position 3
	} {
		conn, k, ok := pc.posOf(r0, c.src, c.samples)
		if ok != c.ok || (ok && (conn != c.conn || k != c.k || pc.pacers[conn].due(k) != c.due)) {
			t.Errorf("source %d at %d samples: connection %d position %d %v, want %d %d %v",
				c.src, c.samples, conn, k, ok, c.conn, c.k, c.ok)
		}
	}
}

func TestBursts(t *testing.T) {
	pl := burstPlan(t, 7, true, 4)
	// Each connection carries its sources four consecutive lines at a time.
	for c, ids := range pl.byConn {
		for k := 0; k < len(ids); k += 4 {
			first := pl.units[ids[k]]
			for i := 1; i < 4; i++ {
				if u := pl.units[ids[k+i]]; u.src != first.src || u.first != first.first+int32(i) {
					t.Fatalf("connection %d position %d: unit %+v does not continue %+v", c, k+i, u, first)
				}
			}
		}
	}
	// A burst's units share its due time; bursts are burst*interval apart.
	pc := newPaced(&workload{frame: 1, conns: 2, rate: 2e6}, pl, 10*time.Microsecond)
	p := pc.pacers[1]
	if pc.n != 12 || p.offset != 2*time.Microsecond {
		t.Fatalf("n %d offset %v, want 12 and 2µs", pc.n, p.offset)
	}
	for k, want := range []time.Duration{2, 2, 2, 2, 6, 6, 6, 6, 10} {
		if got := p.due(k); got != want*time.Microsecond {
			t.Errorf("position %d due %v, want %vµs", k, got, want)
		}
	}
}

func TestNewCommit(t *testing.T) {
	prev := seen{samples: 128, at: 1000}
	if !newCommit(prev, seen{192, 1500}) {
		t.Error("a moved count with a new time was not taken")
	}
	if newCommit(prev, seen{128, 1000}) {
		t.Error("an unchanged read was taken")
	}
	// The count is stored before the time: a read between the two stores
	// must not pair the new count with the previous commit's time.
	if newCommit(prev, seen{192, 1000}) {
		t.Error("a new count with the previous time was taken")
	}
}

// slowWriter delays every write, as a full socket buffer would.
type slowWriter struct {
	bytes.Buffer
	writes int
}

func (w *slowWriter) Write(p []byte) (int, error) {
	w.writes++
	time.Sleep(5 * time.Millisecond)
	return w.Buffer.Write(p)
}

func TestPacedLateness(t *testing.T) {
	stream := make([]byte, 30)
	for i := range stream {
		stream[i] = byte(i)
	}
	units := []unit{{off: 0, end: 10}, {off: 10, end: 20}, {off: 20, end: 30}}
	p := &pacer{stream: stream, units: units, ids: []int32{0, 1, 2}, interval: 2 * time.Millisecond, burst: 1}
	var out slowWriter
	late := make([]float64, 6) // two rounds
	from := make([]int64, len(late))
	if err := p.send(&out, time.Now(), len(late), late, from); err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), stream...), stream...); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("sent %v, want the round twice", out.Bytes())
	}
	// Each write takes 5ms against a 2ms schedule: position 0 goes alone,
	// then 1 and 2 together (3 is a new round), then 3, 4 and 5.
	if out.writes != 3 {
		t.Fatalf("%d writes, want 3", out.writes)
	}
	for k, l := range late {
		if l < 0 {
			t.Errorf("position %d sent %vms before it was due", k, -l)
		}
	}
	// Units of one write share its start, so their lateness differs by
	// exactly the gap between their due times.
	for _, pair := range [][2]int{{1, 2}, {3, 4}, {4, 5}} {
		if d := late[pair[0]] - late[pair[1]]; math.Abs(d-2) > 1e-6 {
			t.Errorf("positions %v: lateness differs by %vms, want 2", pair, d)
		}
	}
	if late[1] < 3 {
		t.Errorf("position 1 lateness %vms: it waited for a 5ms write due at 2ms", late[1])
	}
	// Position 0 went out on time: its latency counts from its write.
	// Every later position waited for a blocked write, so its latency
	// counts from its due time, give or take the generator's own delay
	// after that write returned.
	if d := float64(from[0]) - late[0]*1e6; from[0] < 0 || math.Abs(d) > 1 {
		t.Errorf("position 0 counts from %dns, its write started %vms in", from[0], late[0])
	}
	for k := 1; k < len(from); k++ {
		if d := time.Duration(from[k]) - p.due(k); d < 0 || d > time.Millisecond {
			t.Errorf("position %d counts from %v after its due time, want within 1ms", k, d)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},  // overlaps a
		{name: "a", start: 90, end: 120, parent: 0}, // runs past root's end
		{name: "c", start: 15, end: 25, parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": 100 - (50 - 10) - (100 - 90),
		"a":    (20 - 10) + 30,
		"b":    30,
		"c":    10,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

func TestGateFailsOnPerturbedOracleSample(t *testing.T) {
	p := smallPool(t, 5)
	kinds := []string{detect.KindHolder}
	tr := trace{p: p, offset: p.boots[1] - 100}
	const total = 3000
	// The daemon's path: the whole trace through the columnar kernel.
	set, err := detect.New(kinds, detectConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, s := tr.columns(0, total)
	var verdicts []verdict
	for _, ev := range set.AddColumns(f, s) {
		verdicts = append(verdicts, verdict{ev.Detector, ev.Counter.String(), ev.Sample})
	}
	state, err := set.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	live := liveSource{state: state, samples: total, verdicts: verdicts}

	want, err := runOracle(kinds, detectConfig(), tr, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad := compareSource("src", want, total, live); len(bad) != 0 {
		t.Fatalf("unperturbed oracle disagrees: %v", bad)
	}

	// Perturb one sample the oracle sees.
	q := &pool{free: append([]float64(nil), p.free...), swap: p.swap, boots: p.boots, isBoot: p.isBoot}
	q.free[tr.index(1500)] += 4096
	perturbed, err := runOracle(kinds, detectConfig(), trace{p: q, offset: tr.offset}, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad := compareSource("src", perturbed, total, live); len(bad) == 0 {
		t.Fatal("gate passed with one oracle sample perturbed")
	}
}

func TestEstimatorCopyCheck(t *testing.T) {
	p := smallPool(t, 6)
	tr := trace{p: p, offset: p.boots[1] - 100}
	f, sw := tr.columns(0, 3000)
	var mons [2]*aging.Monitor
	for c := range mons {
		m, err := aging.NewMonitor(daemonMonitor())
		if err != nil {
			t.Fatal(err)
		}
		mons[c] = m
	}
	e, err := newEstCopy()
	if err != nil {
		t.Fatal(err)
	}
	// The monitor takes the first 500 samples one by one and the rest as
	// columns; the copy takes them the same way.
	for k := 0; k < 500; k++ {
		mons[0].Add(f[k])
		mons[1].Add(sw[k])
		e.push(f[k], sw[k])
	}
	mons[0].AddColumns(f[500:])
	mons[1].AddColumns(sw[500:])
	for c, col := range [2][]float64{f[500:], sw[500:]} {
		e.alphas[c] = e.est[c].PushColumns(col, e.alphas[c])
	}
	copies := map[int32]*estCopy{0: e}
	ms := map[int32]*[2]*aging.Monitor{0: &mons}
	if err := checkCopy(copies, ms); err != nil {
		t.Fatalf("matching copy rejected: %v", err)
	}
	e.alphas[1][len(e.alphas[1])-7] += 1e-9
	if err := checkCopy(copies, ms); err == nil {
		t.Fatal("a copy with one Hölder value changed passed the check")
	}
}
