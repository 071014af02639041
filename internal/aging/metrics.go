package aging

import (
	"time"

	"agingmf/internal/obs"
)

// Telemetry for the online monitor. Instrumentation is strictly opt-in:
// an un-instrumented monitor (the default, or Instrument(nil)) pays one
// nil check per Add and nothing else, which the
// BenchmarkMonitorAdd{Instrumented,Uninstrumented} pair in bench_test.go
// keeps honest.

// Monitor metric families. The "counter" label distinguishes the streams
// of a DualMonitor (free-memory / used-swap); a standalone Monitor labels
// itself "raw".
const (
	metricSamples    = "agingmf_monitor_samples_total"
	metricAddSeconds = "agingmf_monitor_add_seconds"
	metricVolatility = "agingmf_monitor_volatility"
	metricPhase      = "agingmf_monitor_phase"
	metricJumps      = "agingmf_monitor_jumps_total"
	metricTrims      = "agingmf_monitor_history_trims_total"
	metricRejected   = "agingmf_monitor_rejected_samples_total"
)

// addLatencyBuckets spans the expected Monitor.Add cost (~0.5 µs
// amortized) from sub-estimator ticks to pathological stalls.
var addLatencyBuckets = []float64{
	250e-9, 500e-9, 1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 100e-6, 1e-3,
}

// monitorMetrics holds one monitor's instruments.
type monitorMetrics struct {
	samples    *obs.Counter
	addSeconds *obs.Histogram
	volatility *obs.Gauge
	phase      *obs.Gauge
	jumps      *obs.Counter
	trims      *obs.Counter
	rejected   *obs.Counter
}

// Instrument attaches the monitor to a telemetry registry, registering
// its metric families and labeling this monitor's children counter="raw".
// A nil registry detaches the monitor (zero overhead). Metrics are not
// part of SaveState snapshots; re-attach after RestoreMonitor.
func (m *Monitor) Instrument(reg *obs.Registry) {
	m.instrument(reg, "raw")
}

// instrument wires the shared metric families with the given counter
// label — DualMonitor passes the counter kind of each stream.
func (m *Monitor) instrument(reg *obs.Registry, counterLabel string) {
	if reg == nil {
		m.met = nil
		return
	}
	det := m.cfg.Detector.String()
	m.met = &monitorMetrics{
		samples: reg.CounterVec(metricSamples,
			"Raw counter samples consumed by the aging monitor.",
			"counter").With(counterLabel),
		addSeconds: reg.HistogramVec(metricAddSeconds,
			"Latency of one Monitor.Add call.",
			addLatencyBuckets, "counter").With(counterLabel),
		volatility: reg.GaugeVec(metricVolatility,
			"Latest moving-window volatility of the Hölder trajectory.",
			"counter").With(counterLabel),
		phase: reg.GaugeVec(metricPhase,
			"Aging phase: 1 healthy, 2 aging-onset, 3 crash-imminent.",
			"counter").With(counterLabel),
		jumps: reg.CounterVec(metricJumps,
			"Detected Hölder-volatility jumps.",
			"counter", "detector").With(counterLabel, det),
		trims: reg.CounterVec(metricTrims,
			"History-bound trims performed in bounded-memory mode.",
			"counter").With(counterLabel),
		rejected: reg.CounterVec(metricRejected,
			"Non-finite counter samples refused by the aging monitor.",
			"counter").With(counterLabel),
	}
	// Counters count from instrumentation time (the usual process-restart
	// semantics); gauges reflect current state immediately.
	m.met.phase.Set(float64(m.Phase()))
}

// observe records the telemetry of one Add or AddColumns call that
// consumed n samples and fired jumps: one latency observation for the
// call (the histogram measures call latency) and bulk counter updates.
// The caller guarantees m.met != nil.
func (m *Monitor) observe(start time.Time, n, fired int) {
	m.met.addSeconds.Observe(time.Since(start).Seconds())
	m.met.samples.Add(uint64(n))
	if m.volsSeen > 0 {
		m.met.volatility.Set(m.vols[len(m.vols)-1])
	}
	if fired > 0 {
		m.met.jumps.Add(uint64(fired))
		m.met.phase.Set(float64(m.Phase()))
	}
}

// Instrument attaches both per-counter monitors to a telemetry registry,
// labeling their children with the counter kind ("free-memory" /
// "used-swap"). A nil registry detaches. Call again after
// RestoreDualMonitor — instruments are not persisted.
func (d *DualMonitor) Instrument(reg *obs.Registry) {
	d.free.instrument(reg, CounterFreeMemory.String())
	d.swap.instrument(reg, CounterUsedSwap.String())
}
