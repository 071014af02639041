package source

import (
	"fmt"
	"io"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/memsim"
	"agingmf/internal/resilience"
	"agingmf/internal/series"
	"agingmf/internal/trace"
)

// MonitorSinkConfig wires the optional observers of a MonitorSink. All
// callbacks receive sample positions counted from the start of this
// sink's session (a restored monitor's earlier samples are not
// re-counted), which is what every command prints.
type MonitorSinkConfig struct {
	// Watchdog is petted once per item (nil ignores, as everywhere).
	Watchdog *resilience.Watchdog
	// OnResume fires when a pet clears a stall; samples is the session
	// count before the item that resumed the stream.
	OnResume func(samples int)
	// OnJumps fires when an item's pairs trip volatility jumps; samples
	// is the session count before the item.
	OnJumps func(samples int, jumps []aging.DualJump)
	// OnPhase fires on a phase transition; last is the session index of
	// the pair that crossed it, and it is the item that carried it.
	OnPhase func(last int, from, to aging.Phase, it Item)
	// Tracer samples items for pipeline stage spans (nil disables). Sinks
	// are single-threaded, so spans carry shard 0.
	Tracer *trace.Tracer
	// Recorder keeps the annotated tail of recent samples (nil disables).
	Recorder *trace.FlightRecorder
	// Source labels trace spans and flight records ("monitor" if empty).
	Source string
}

// MonitorSink feeds items into an online dual-counter aging monitor —
// the detection stage of every live pipeline (agingmon, replay, chaos).
type MonitorSink struct {
	mon       *aging.DualMonitor
	cfg       MonitorSinkConfig
	samples   int
	lastPhase aging.Phase

	// Scratch reused across items so the steady state does not
	// allocate: the item's pairs as columns, and the annotated
	// (traced/recorded) Write path's timings and records.
	free, swap []float64
	tm         aging.StageNanos
	recs       []trace.Record
}

// NewMonitorSink attaches a sink to mon (which may carry restored
// state; phase transitions are reported relative to its current phase).
func NewMonitorSink(mon *aging.DualMonitor, cfg MonitorSinkConfig) *MonitorSink {
	if cfg.Source == "" {
		cfg.Source = "monitor"
	}
	return &MonitorSink{mon: mon, cfg: cfg, lastPhase: mon.Phase()}
}

// Samples returns the number of pairs fed this session.
func (s *MonitorSink) Samples() int { return s.samples }

func (s *MonitorSink) Write(it Item) error {
	return s.WriteSampled(it, s.cfg.Tracer.Sample())
}

// WriteSampled is Write with the item's tracer sequence already drawn
// (0 = untraced). Callers that wrap Source.Next in a source.next span
// draw the sequence before Next so one sampled unit covers the whole
// item; everyone else uses Write.
func (s *MonitorSink) WriteSampled(it Item, seq uint64) error {
	if len(it.Pairs) == 0 {
		return nil
	}
	if s.cfg.Watchdog.Pet() && s.cfg.OnResume != nil {
		s.cfg.OnResume(s.samples)
	}
	var jumps []aging.DualJump
	if seq != 0 || s.cfg.Recorder != nil {
		jumps = s.observe(it.Pairs, seq)
	} else {
		s.free, s.swap = s.free[:0], s.swap[:0]
		for _, p := range it.Pairs {
			s.free = append(s.free, p[0])
			s.swap = append(s.swap, p[1])
		}
		jumps = s.mon.AddColumns(s.free, s.swap)
	}
	if len(jumps) > 0 && s.cfg.OnJumps != nil {
		s.cfg.OnJumps(s.samples, jumps)
	}
	s.samples += len(it.Pairs)
	if p := s.mon.Phase(); p != s.lastPhase {
		if s.cfg.OnPhase != nil {
			s.cfg.OnPhase(s.samples-1, s.lastPhase, p, it)
		}
		s.lastPhase = p
	}
	return nil
}

func (s *MonitorSink) Close() error { return nil }

// observe is the annotated Write path: per-pair AddTraced (verdict-
// identical to AddColumns), one flight record per pair, and — when this
// item drew a tracer sequence — detect plus stream-stage spans. The
// stream stages ran interleaved inside detect, so each accumulated total
// is exported as one span ending at the detect boundary, matching the
// ingest registry's convention.
func (s *MonitorSink) observe(pairs [][2]float64, seq uint64) []aging.DualJump {
	var tm *aging.StageNanos
	var detectStart time.Time
	if seq != 0 {
		s.tm = aging.StageNanos{}
		tm = &s.tm
		detectStart = time.Now()
	}
	recs := s.recs[:0]
	var all []aging.DualJump
	wall := time.Now().UnixNano()
	for _, p := range pairs {
		js := s.mon.AddTraced(p[0], p[1], tm)
		all = append(all, js...)
		if s.cfg.Recorder != nil {
			scoreFree, scoreSwap := s.mon.LastStats()
			recs = append(recs, trace.Record{
				Seq:       uint64(s.mon.SamplesSeen()),
				Wall:      wall,
				Free:      p[0],
				Swap:      p[1],
				ScoreFree: scoreFree,
				ScoreSwap: scoreSwap,
				Phase:     s.mon.Phase().String(),
				Jumps:     len(js),
			})
		}
	}
	if seq != 0 {
		end := time.Now()
		s.cfg.Tracer.Record(trace.StageDetect, s.cfg.Source, 0, seq, detectStart, end.Sub(detectStart))
		stages := [...]int64{s.tm.Est, s.tm.Vol, s.tm.Std, s.tm.Gate}
		for i, ns := range stages {
			d := time.Duration(ns)
			s.cfg.Tracer.Record(trace.StageEst+trace.Stage(i), s.cfg.Source, 0, seq, end.Add(-d), d)
		}
		if n := len(recs); n > 0 {
			recs[n-1].TraceSeq = seq
			recs[n-1].StageNs[trace.StageEst] = s.tm.Est
			recs[n-1].StageNs[trace.StageVol] = s.tm.Vol
			recs[n-1].StageNs[trace.StageStd] = s.tm.Std
			recs[n-1].StageNs[trace.StageGate] = s.tm.Gate
			recs[n-1].StageNs[trace.StageDetect] = end.Sub(detectStart).Nanoseconds()
		}
	}
	if len(recs) > 0 {
		s.cfg.Recorder.Append(recs)
	}
	s.recs = recs[:0] // keep grown capacity for the next item
	return all
}

// TraceSink accumulates items into the four collector counter columns
// and dumps them as CSV — the recording stage of stressgen. Items must
// carry machine counters (simulation-produced).
type TraceSink struct {
	step  time.Duration
	every int

	free, swap, traffic, procs []float64
	crash                      memsim.CrashKind
	crashIndex                 int
}

// NewTraceSink builds a trace recorder; step is the wall-clock duration
// of one sample (machine tick duration × decimation) and every is the
// tick decimation, used to convert the crash index back to ticks.
func NewTraceSink(step time.Duration, every int) *TraceSink {
	if every < 1 {
		every = 1
	}
	return &TraceSink{step: step, every: every, crashIndex: -1}
}

func (s *TraceSink) Write(it Item) error {
	if len(it.Counters) == 0 {
		return fmt.Errorf("trace sink: item without machine counters: %w", ErrBadConfig)
	}
	for _, c := range it.Counters {
		s.free = append(s.free, c.FreeMemoryBytes)
		s.swap = append(s.swap, c.UsedSwapBytes)
		s.traffic = append(s.traffic, float64(c.SwapTrafficPages))
		s.procs = append(s.procs, float64(c.Processes))
	}
	if it.Crash != memsim.CrashNone {
		s.crash = it.Crash
		s.crashIndex = len(s.free) - 1
	}
	return nil
}

// Len returns the number of samples recorded.
func (s *TraceSink) Len() int { return len(s.free) }

// Crash reports how the recorded run ended (CrashNone if it survived).
func (s *TraceSink) Crash() memsim.CrashKind { return s.crash }

// CrashTick converts the crash sample index to machine ticks (-1 when
// the run ended without a crash) — the collector.Trace convention.
func (s *TraceSink) CrashTick() int {
	if s.crashIndex < 0 {
		return -1
	}
	return s.crashIndex * s.every
}

// Series returns the four counter columns under their standard names.
func (s *TraceSink) Series() []series.Series {
	mk := func(name string, vals []float64) series.Series {
		return series.Series{Name: name, Step: s.step, Values: vals}
	}
	return []series.Series{
		mk("free_memory_bytes", s.free),
		mk("used_swap_bytes", s.swap),
		mk("swap_traffic_pages", s.traffic),
		mk("processes", s.procs),
	}
}

// Columns returns the recorded free-memory and used-swap columns — the
// two counters the fleet wire protocols carry. The slices alias the
// sink's storage; callers must not mutate them.
func (s *TraceSink) Columns() (free, swap []float64) { return s.free, s.swap }

// WriteCSV exports the recorded columns in the collector CSV format.
func (s *TraceSink) WriteCSV(w io.Writer) error {
	cols := s.Series()
	if err := series.WriteCSV(w, cols[0], cols[1], cols[2], cols[3]); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func (s *TraceSink) Close() error { return nil }
