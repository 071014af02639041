package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/control"
	"agingmf/internal/detect"
	"agingmf/internal/ingest"
	"agingmf/internal/source"
	"agingmf/internal/stream"
)

// The traced run replays a subset of the run's units: every k-th source,
// all of its first-round units, in send order. k keeps the subset within
// these bounds (a per-sample call gets a span each, so the bound on
// samples is tighter when the recorder forces per-sample detection).
const (
	maxTracedUnits         = 50000
	maxTracedSamples       = 1 << 20
	maxTracedSamplesPerRow = 1 << 17
	maxRoutedUnits         = 4096
)

// layersOut is the traced run's result.
type layersOut struct {
	metrics   map[string]metric
	spansFile string
	samples   int
}

// replay is the traced subset with its samples decoded up front.
type replay struct {
	in      *inputs
	units   []int32
	cols    [][2][]float64 // per traced unit: free and swap columns
	sources []int          // distinct sources of the subset
	samples int
	perRow  bool // the daemon detects sample by sample (recorder on)
}

func newReplay(in *inputs) *replay {
	pl := in.plan
	rp := &replay{in: in, perRow: in.w.recorder > 0}
	limit := maxTracedSamples
	if rp.perRow {
		limit = maxTracedSamplesPerRow
	}
	total := len(pl.ids) * pl.cycle
	k := max(1, (total+limit-1)/limit, (len(pl.units)+maxTracedUnits-1)/maxTracedUnits)
	for s := 0; s < len(pl.ids); s += k {
		rp.sources = append(rp.sources, s)
	}
	for j := 0; j < pl.cycle/pl.frame; j++ {
		for _, s := range rp.sources {
			id := pl.bySrc[s][j]
			u := pl.units[id]
			f, sw := pl.traces[s].columns(int(u.first), int(u.first+u.n))
			rp.units = append(rp.units, id)
			rp.cols = append(rp.cols, [2][]float64{f, sw})
			rp.samples += int(u.n)
		}
	}
	return rp
}

// bytesOf returns a unit's wire bytes.
func (rp *replay) bytesOf(id int32) []byte {
	u := rp.in.plan.units[id]
	return rp.in.plan.streams[u.conn][u.off:u.end]
}

// warmed builds one value per subset source and feeds it the source's
// warm lead untimed.
func warmed[T any](rp *replay, build func() (T, error), feed func(T, float64, float64)) (map[int32]T, error) {
	out := make(map[int32]T, len(rp.sources))
	for _, s := range rp.sources {
		v, err := build()
		if err != nil {
			return nil, err
		}
		for k := 0; k < rp.in.lead; k++ {
			f, sw := rp.in.plan.traces[s].at(k)
			feed(v, f, sw)
		}
		out[int32(s)] = v
	}
	return out, nil
}

// newSet builds a detector set of the given kinds.
func newSet(kinds []string) func() (*detect.MonitorSet, error) {
	return func() (*detect.MonitorSet, error) { return detect.New(kinds, detectConfig()) }
}

func feedSet(s *detect.MonitorSet, f, sw float64) { s.Add(f, sw) }

// onPath replays the units through the layers the daemon runs in line
// for every unit — wire decode (binary) or parse (text), then the
// detector set, called as the daemon calls it — and returns the
// elapsed time. A nil tracer runs the same calls untraced.
func (rp *replay) onPath(tr *tracer) (time.Duration, error) {
	w := rp.in.w
	sets, err := warmed(rp, newSet(w.detectors), feedSet)
	if err != nil {
		return 0, err
	}
	cb := source.AcquireColumnarBatch()
	defer cb.Release()
	var root int32 = -1
	begin := func(name string, parent, unit int32) int32 {
		if tr == nil {
			return -1
		}
		return tr.begin(name, parent, unit)
	}
	end := func(i int32) {
		if tr != nil {
			tr.end(i)
		}
	}
	var free, swap [1]float64
	start := time.Now()
	root = begin("pass.onpath", -1, -1)
	for _, id := range rp.units {
		b := rp.bytesOf(id)
		set := sets[rp.in.plan.units[id].src]
		us := begin("unit", root, id)
		var fc, sc []float64
		if w.text {
			line := string(b)
			sp := begin("ingest.parse", us, id)
			smp, err := ingest.ParseLine(line)
			end(sp)
			if err != nil {
				return 0, err
			}
			free[0], swap[0] = smp.Free, smp.Swap
			fc, sc = free[:], swap[:]
		} else {
			sp := begin("source.decode", us, id)
			err := source.DecodeFrame(b, cb, nil)
			end(sp)
			if err != nil {
				return 0, err
			}
			fc, sc = cb.Free, cb.Swap
		}
		if rp.perRow {
			for i := range fc {
				sp := begin("detect.set", us, id)
				set.AddTraced(fc[i], sc[i], nil)
				end(sp)
			}
		} else {
			sp := begin("detect.set", us, id)
			set.AddColumns(fc, sc)
			end(sp)
		}
		end(us)
	}
	end(root)
	return time.Since(start), nil
}

// otherCodec times the codec the workload does not use on the same
// samples: text batch parsing for binary workloads (the form cluster
// forwards travel in), binary frame decoding for text workloads.
func (rp *replay) otherCodec(tr *tracer) error {
	pl := rp.in.plan
	root := tr.begin("pass.codec", -1, -1)
	defer tr.end(root)
	cb := source.AcquireColumnarBatch()
	defer cb.Release()
	for i, id := range rp.units {
		src := pl.ids[pl.units[id].src]
		c := rp.cols[i]
		if rp.in.w.text {
			cb.Reset()
			cb.Source = src
			cb.Free = append(cb.Free, c[0]...)
			cb.Swap = append(cb.Swap, c[1]...)
			frame, err := source.AppendFrame(nil, cb)
			if err != nil {
				return err
			}
			sp := tr.begin("source.decode", root, id)
			err = source.DecodeFrame(frame, cb, nil)
			tr.end(sp)
			if err != nil {
				return err
			}
			continue
		}
		pairs := make([][2]float64, len(c[0]))
		for k := range pairs {
			pairs[k] = [2]float64{c[0][k], c[1][k]}
		}
		line := ingest.FormatBatch(ingest.Batch{Source: src, Pairs: pairs})
		sp := tr.begin("ingest.parse", root, id)
		_, err := ingest.ParseBatch(line)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// enqueue times the registry entry point the daemon's connection
// handler calls, into a registry whose shards drain concurrently. The
// shard queues hold every traced unit, so that a span times the call
// and not a wait for room in a full queue, which the single producer
// here would otherwise cause.
func (rp *replay) enqueue(tr *tracer) error {
	w, pl := rp.in.w, rp.in.plan
	cfg := registryConfig(w)
	cfg.QueueSize = len(rp.units)
	if rp.in.warm != nil {
		cfg.Restore = make(map[string][]byte, len(rp.sources))
		for _, s := range rp.sources {
			cfg.Restore[pl.ids[s]] = rp.in.warm[pl.ids[s]]
		}
	}
	reg, err := ingest.NewRegistry(cfg)
	if err != nil {
		return err
	}
	root := tr.begin("pass.enqueue", -1, -1)
	for _, id := range rp.units {
		b := rp.bytesOf(id)
		if w.text {
			line := string(b)
			sp := tr.begin("ingest.enqueue", root, id)
			err = reg.IngestLine("", line)
			tr.end(sp)
		} else {
			cb := source.AcquireColumnarBatch()
			if err = source.DecodeFrame(b, cb, nil); err != nil {
				cb.Release()
			} else {
				sp := tr.begin("ingest.enqueue", root, id)
				err = reg.IngestColumns(cb)
				tr.end(sp)
			}
		}
		if err != nil {
			reg.Close()
			return err
		}
	}
	tr.end(root)
	if err := reg.Close(); err != nil {
		return err
	}
	if got := reg.Accepted(); got != uint64(rp.samples) {
		return fmt.Errorf("traced enqueue: %d of %d samples folded", got, rp.samples)
	}
	return nil
}

// detectors times each detector kind alone, called as the daemon's set
// calls it: one column push per unit, or one push per sample with the
// recorder on.
func (rp *replay) detectors(tr *tracer) error {
	for _, kind := range []string{detect.KindHolder, detect.KindEntropy, detect.KindAdaptive} {
		sets, err := warmed(rp, newSet([]string{kind}), feedSet)
		if err != nil {
			return err
		}
		name := "detect." + kind
		root := tr.begin("pass."+kind, -1, -1)
		for i, id := range rp.units {
			d := sets[rp.in.plan.units[id].src].Detector(0)
			c := rp.cols[i]
			if cp, ok := d.(detect.ColumnPusher); ok && !rp.perRow {
				sp := tr.begin(name, root, id)
				cp.PushColumns(c[0], c[1])
				tr.end(sp)
				continue
			}
			for k := range c[0] {
				sp := tr.begin(name, root, id)
				d.Push(detect.Sample{Free: c[0][k], Swap: c[1][k]}, nil)
				tr.end(sp)
			}
		}
		tr.end(root)
	}
	return nil
}

// monitors times the aging layer: one aging.Monitor per counter, with
// the daemon's history bound. It returns the monitors, fed every unit.
func (rp *replay) monitors(tr *tracer) (map[int32]*[2]*aging.Monitor, error) {
	mons, err := warmed(rp, func() (*[2]*aging.Monitor, error) {
		var m [2]*aging.Monitor
		for i := range m {
			var err error
			if m[i], err = aging.NewMonitor(daemonMonitor()); err != nil {
				return nil, err
			}
		}
		return &m, nil
	}, func(m *[2]*aging.Monitor, f, sw float64) { m[0].Add(f); m[1].Add(sw) })
	if err != nil {
		return nil, err
	}
	root := tr.begin("pass.aging", -1, -1)
	defer tr.end(root)
	for i, id := range rp.units {
		m := mons[rp.in.plan.units[id].src]
		for c := 0; c < 2; c++ {
			col := rp.cols[i][c]
			if !rp.perRow {
				sp := tr.begin("aging.monitor", root, id)
				m[c].AddColumns(col)
				tr.end(sp)
				continue
			}
			for _, x := range col {
				sp := tr.begin("aging.monitor", root, id)
				m[c].Add(x)
				tr.end(sp)
			}
		}
	}
	return mons, nil
}

// streams times the stream stages of the Hölder pipeline on both
// counters. Volatility, standardizer and gate, and on per-row workloads
// the estimator, are read from the program's own stage timer: a
// holder-only detector set fed sample by sample through
// MonitorSet.AddTraced with an aging.StageNanos, on at most
// maxTracedSamplesPerRow samples. The columnar estimator kernel has no
// stage timer, so on columnar workloads it is timed on a copy, one
// OscillationEstimator per counter built with the monitor's radius
// ladder, and checkCopy compares the copy's output with the aging pass.
func (rp *replay) streams(tr *tracer) (tm aging.StageNanos, rowSamples int, copies map[int32]*estCopy, err error) {
	sets, err := warmed(rp, newSet([]string{detect.KindHolder}), feedSet)
	if err != nil {
		return tm, 0, nil, err
	}
	root := tr.begin("pass.stream", -1, -1)
	for i, id := range rp.units {
		if rowSamples >= maxTracedSamplesPerRow {
			break
		}
		set := sets[rp.in.plan.units[id].src]
		c := rp.cols[i]
		sp := tr.begin("stream.stages", root, id)
		for k := range c[0] {
			set.AddTraced(c[0][k], c[1][k], &tm)
		}
		tr.end(sp)
		rowSamples += len(c[0])
	}
	tr.end(root)
	if rp.perRow {
		return tm, rowSamples, nil, nil
	}
	copies, err = warmed(rp, newEstCopy, (*estCopy).push)
	if err != nil {
		return tm, 0, nil, err
	}
	root = tr.begin("pass.estimator", -1, -1)
	for i, id := range rp.units {
		e := copies[rp.in.plan.units[id].src]
		for c := range e.est {
			sp := tr.begin("stream.estimator", root, id)
			e.alphas[c] = e.est[c].PushColumns(rp.cols[i][c], e.alphas[c])
			tr.end(sp)
		}
	}
	tr.end(root)
	return tm, rowSamples, copies, nil
}

// estCopy is the bench's copy of one source's columnar estimator kernel:
// an estimator per counter and every Hölder value it emitted.
type estCopy struct {
	est    [2]*stream.OscillationEstimator
	alphas [2][]float64
}

// newEstCopy builds the estimators with aging.Monitor's radius ladder
// for the daemon's configuration: MinRadius doubling up to MaxRadius.
func newEstCopy() (*estCopy, error) {
	cfg := daemonMonitor()
	var ladder []int
	for r := cfg.MinRadius; r <= cfg.MaxRadius; r *= 2 {
		ladder = append(ladder, r)
	}
	var e estCopy
	for c := range e.est {
		est, err := stream.NewOscillationEstimator(ladder)
		if err != nil {
			return nil, err
		}
		e.est[c] = est
	}
	return &e, nil
}

// push feeds one sample pair through the per-sample estimator path.
func (e *estCopy) push(f, sw float64) {
	for c, x := range [2]float64{f, sw} {
		if a, ok := e.est[c].Push(x); ok {
			e.alphas[c] = append(e.alphas[c], a)
		}
	}
}

// checkCopy fails when the estimator copy and the aging pass's monitors,
// fed the same samples, disagree on the samples seen or on the retained
// Hölder values, so that the timed copy cannot drift from the monitor.
func checkCopy(copies map[int32]*estCopy, mons map[int32]*[2]*aging.Monitor) error {
	for src, e := range copies {
		for c := range e.est {
			m := mons[src][c]
			hv := m.HolderValues()
			a := e.alphas[c]
			if e.est[c].Seen() != m.SamplesSeen() || len(a) < len(hv) {
				return fmt.Errorf("source %d counter %d: estimator copy saw %d samples and %d values, the monitor %d and %d",
					src, c, e.est[c].Seen(), len(a), m.SamplesSeen(), len(hv))
			}
			for k, v := range hv {
				if math.Float64bits(a[len(a)-len(hv)+k]) != math.Float64bits(v) {
					return fmt.Errorf("source %d counter %d: estimator copy's Hölder value %d differs from the monitor's", src, c, len(a)-len(hv)+k)
				}
			}
		}
	}
	return nil
}

// publish replays the run's alert sequence through a bus with one
// draining subscriber, as in the run.
func publish(tr *tracer, alerts []control.Alert) {
	bus := control.NewBus(256)
	sub := bus.Subscribe("perfbench", alertBuffer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C() {
		}
	}()
	root := tr.begin("pass.publish", -1, -1)
	for i, a := range alerts {
		sp := tr.begin("control.publish", root, int32(i))
		bus.Publish(a)
		tr.end(sp)
	}
	tr.end(root)
	bus.Close()
	<-done
}

// route times the cluster router at the entry node of a three-node
// cluster on loopback, wired as in the cluster workload, and returns
// the entry node's forward share and the fresh adoptions per source.
func (rp *replay) route(tr *tracer) (fwdFrac, freshPerSrc float64, err error) {
	w := *rp.in.w
	w.nodes = 3
	f, err := startFleet(&w, "")
	if err != nil {
		return 0, 0, err
	}
	defer f.close()
	acc0, _, _ := f.counts()
	units := rp.units
	if len(units) > maxRoutedUnits {
		units = units[:maxRoutedUnits]
	}
	samples := 0
	seen := map[int32]bool{}
	root := tr.begin("pass.route", -1, -1)
	for _, id := range units {
		b := rp.bytesOf(id)
		samples += int(rp.in.plan.units[id].n)
		seen[rp.in.plan.units[id].src] = true
		if w.text {
			line := string(b)
			sp := tr.begin("cluster.route", root, id)
			err = f.nodes[0].IngestLine("", line)
			tr.end(sp)
		} else {
			cb := source.AcquireColumnarBatch()
			if err = source.DecodeFrame(b, cb, nil); err != nil {
				cb.Release()
			} else {
				sp := tr.begin("cluster.route", root, id)
				err = f.nodes[0].IngestColumns(cb)
				tr.end(sp)
			}
		}
		if err != nil {
			return 0, 0, err
		}
	}
	tr.end(root)
	if err := waitFolded(f, acc0+uint64(samples), 0, 0); err != nil {
		return 0, 0, fmt.Errorf("traced route: %w", err)
	}
	var fresh uint64
	for _, n := range f.nodes {
		fresh += n.Status().AdoptionsFresh
	}
	return float64(f.nodes[0].Status().Forwards) / float64(len(units)),
		float64(fresh) / float64(len(seen)), nil
}

// runTraced times every layer on the run's inputs and derives the
// per-layer metrics, with the untraced run's health counters.
func runTraced(in *inputs, live *liveOut) (*layersOut, error) {
	rp := newReplay(in)
	calls := len(rp.units) // calls per pass of a per-unit layer
	if rp.perRow {
		calls = rp.samples
	}
	tr := newTracer(16 + 7*len(rp.units) + 6*calls + len(live.alerts) + maxRoutedUnits)
	// The on-path replay runs untraced, then traced: the difference is
	// the tracing overhead.
	plain, err := rp.onPath(nil)
	if err != nil {
		return nil, err
	}
	traced, err := rp.onPath(tr)
	if err != nil {
		return nil, err
	}
	for _, step := range []func(*tracer) error{rp.otherCodec, rp.enqueue, rp.detectors} {
		if err := step(tr); err != nil {
			return nil, err
		}
	}
	mons, err := rp.monitors(tr)
	if err != nil {
		return nil, err
	}
	stages, rowSamples, copies, err := rp.streams(tr)
	if err != nil {
		return nil, err
	}
	if err := checkCopy(copies, mons); err != nil {
		return nil, fmt.Errorf("stream estimator copy: %w", err)
	}
	publish(tr, live.alerts)
	fwd, fresh, err := rp.route(tr)
	if err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	routed := min(len(rp.units), maxRoutedUnits)

	n := float64(rp.samples)
	units := float64(len(rp.units))
	perSample := func(name string) float64 { return float64(self[name]) / n }
	w := in.w
	pl := in.plan
	nalerts := float64(max(len(live.alerts), 1))
	m := map[string]metric{
		"source.decode_ns_per_sample":         {perSample("source.decode"), "ns"},
		"source.wire_bytes_per_sample":        {float64(pl.wireBytes()) / float64(len(pl.ids)*pl.cycle), "B"},
		"ingest.parse_ns_per_sample":          {perSample("ingest.parse"), "ns"},
		"ingest.enqueue_ns_per_unit":          {float64(self["ingest.enqueue"]) / units, "ns"},
		"ingest.queue_depth_p99":              {depthP99(live.depths), "count"},
		"ingest.shard_skew":                   {live.skew, "ratio"},
		"ingest.drain_ms":                     {median(append([]float64(nil), live.drainsMs...)), "ms"},
		"ingest.restore_s":                    {live.restoreS, "s"},
		"ingest.state_bytes_per_source":       {live.stateBytesSrc, "B"},
		"detect.set_ns_per_sample":            {perSample("detect.set"), "ns"},
		"detect.holder_ns_per_sample":         {perSample("detect.holder"), "ns"},
		"detect.entropy_ns_per_sample":        {perSample("detect.entropy"), "ns"},
		"detect.adaptive_ns_per_sample":       {perSample("detect.adaptive"), "ns"},
		"aging.monitor_ns_per_sample":         {perSample("aging.monitor"), "ns"},
		"stream.estimator_ns_per_sample":      {perSample("stream.estimator"), "ns"},
		"stream.volatility_ns_per_sample":     {float64(stages.Vol) / float64(rowSamples), "ns"},
		"stream.standardize_ns_per_sample":    {float64(stages.Std) / float64(rowSamples), "ns"},
		"stream.gate_ns_per_sample":           {float64(stages.Gate) / float64(rowSamples), "ns"},
		"control.publish_ns_per_alert":        {float64(self["control.publish"]) / nalerts, "ns"},
		"control.alerts_per_msample":          {float64(len(live.alerts)) / float64(live.totalSamples()) * 1e6, "count"},
		"control.sub_drops":                   {float64(live.subDrops), "count"},
		"cluster.route_ns_per_unit":           {float64(self["cluster.route"]) / float64(routed), "ns"},
		"cluster.forward_frac":                {fwd, "ratio"},
		"cluster.adoptions_fresh_per_source":  {fresh, "ratio"},
		"loadgen.late_p99_ms":                 {percentile(append([]float64(nil), live.lateMs...), 99), "ms"},
		"layers.trace_overhead_ns_per_sample": {float64(traced-plain) / n, "ns"},
	}
	growth, err := adaptiveGrowth(in.plan.traces[0])
	if err != nil {
		return nil, err
	}
	m["detect.adaptive_state_growth_bytes_per_sample"] = metric{growth, "B"}
	if len(live.latMs) > 0 {
		m["verdict_latency_p99_ms"] = metric{windowed(live.latMs, 99), "ms"}
	}
	if rp.perRow {
		m["stream.estimator_ns_per_sample"] = metric{float64(stages.Est) / float64(rowSamples), "ns"}
	}
	// What the layers on the daemon's path account for, per sample; the
	// rest of the untraced CPU cost is hand-offs and bookkeeping the
	// layer calls do not show.
	codec := "source.decode"
	if w.text {
		codec = "ingest.parse"
	}
	// A clustered entry routes each unit instead of enqueueing it; the
	// route span holds the local enqueue or the whole synchronous forward.
	entry := m["ingest.enqueue_ns_per_unit"].Value
	if w.nodes > 0 {
		entry = m["cluster.route_ns_per_unit"].Value
	}
	attributed := perSample(codec) + entry/float64(w.frame) + perSample("detect.set") +
		m["control.publish_ns_per_alert"].Value*float64(len(live.alerts))/float64(live.samples)
	m["layers.unattributed_ns_per_sample"] = metric{live.cpuNs - attributed, "ns"}

	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.csv.gz", w.name, in.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	return &layersOut{metrics: m, spansFile: path, samples: rp.samples}, nil
}

// adaptiveGrowth is how many snapshot bytes agingd's own adaptive
// detector (its configuration as agingd builds it, without detectSuite's
// bound) adds per sample once the holder's history would be full: 0 for a
// bounded history. It feeds one trace for one history limit of samples,
// then for two more.
func adaptiveGrowth(t trace) (float64, error) {
	set, err := detect.New([]string{detect.KindAdaptive}, ingest.Config{Monitor: daemonMonitor()}.DetectorConfig())
	if err != nil {
		return 0, err
	}
	n := daemonMonitor().HistoryLimit
	size := func(from, to int) (int, error) {
		for k := from; k < to; k++ {
			set.Add(t.at(k))
		}
		b, err := set.SaveState()
		return len(b), err
	}
	b1, err := size(0, n)
	if err != nil {
		return 0, err
	}
	b2, err := size(n, 3*n)
	if err != nil {
		return 0, err
	}
	return float64(b2-b1) / float64(2*n), nil
}

// depthP99 is the 99th percentile of the sampled shard queue depths.
func depthP99(depths []float64) float64 {
	if len(depths) == 0 {
		return 0
	}
	return percentile(append([]float64(nil), depths...), 99)
}
