package agingmf_test

import (
	"fmt"
	"testing"

	"agingmf"
	"agingmf/internal/experiment"
)

// benchExperiment runs a registered experiment end to end — one benchmark
// per reconstructed table/figure of the paper's evaluation, as required by
// the reproduction protocol. Quick mode keeps the per-iteration cost at
// campaign scale rather than full-paper scale; cmd/experiments (without
// -quick) regenerates the full-size artifacts.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		// A fresh seed per iteration defeats the campaign memoizer so the
		// benchmark measures real work.
		rep, err := e.Run(experiment.RunConfig{Seed: int64(i + 1), Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// BenchmarkE1HolderEstimation reproduces the estimator-validation table.
func BenchmarkE1HolderEstimation(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2RunToCrash reproduces the raw counter trajectory figures.
func BenchmarkE2RunToCrash(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3HolderTrajectory reproduces the Hölder trajectory figures.
func BenchmarkE3HolderTrajectory(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4VolatilityJumps reproduces the volatility/jump figure.
func BenchmarkE4VolatilityJumps(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Campaign reproduces the jump/crash chronology table.
func BenchmarkE5Campaign(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Spectrum reproduces the spectrum-widening figure.
func BenchmarkE6Spectrum(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Surrogate reproduces the surrogate-comparison figure.
func BenchmarkE7Surrogate(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Detectors reproduces the detector-comparison table.
func BenchmarkE8Detectors(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Rejuvenation reproduces the rejuvenation pay-off table.
func BenchmarkE9Rejuvenation(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Sensitivity runs the detector/window ablation (extension).
func BenchmarkE10Sensitivity(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11FaultInjection runs the fault-injection latency experiment
// (extension).
func BenchmarkE11FaultInjection(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12WorkloadValidation runs the workload self-similarity
// validation (extension).
func BenchmarkE12WorkloadValidation(b *testing.B) { benchExperiment(b, "E12") }

// --- micro-benchmarks of the hot paths behind the experiments ---

// BenchmarkMonitorAdd measures the per-sample cost of the online monitor,
// the number that determines production monitoring overhead.
func BenchmarkMonitorAdd(b *testing.B) {
	mon, err := agingmf.NewMonitor(agingmf.DefaultMonitorConfig())
	if err != nil {
		b.Fatal(err)
	}
	xs, err := agingmf.FBM(1<<16, 0.6, agingmf.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Add(xs[i%len(xs)])
	}
}

// BenchmarkMonitorAddColumns measures the columnar kernel chain — the
// path every ingested unit takes, whatever its wire — normalized to
// ns/sample against BenchmarkMonitorAdd. Sizes 1 and 16 straddle the
// estimator's short-column cut-off (a length-1 column is one text line
// and must cost what Add does); 256 and 4096 are the frame sizes the
// binary protocol ships, where the stage-at-a-time kernels (one dyadic
// extrema cascade for every rung, memoized regression) carry the
// end-to-end throughput.
func BenchmarkMonitorAddColumns(b *testing.B) {
	for _, size := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			mon, err := agingmf.NewMonitor(agingmf.DefaultMonitorConfig())
			if err != nil {
				b.Fatal(err)
			}
			xs, err := agingmf.FBM(1<<16, 0.6, agingmf.NewRand(1))
			if err != nil {
				b.Fatal(err)
			}
			off := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if off+size > len(xs) {
					off = 0
				}
				mon.AddColumns(xs[off : off+size])
				off += size
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/sample")
		})
	}
}

// benchMonitorAdd feeds a pre-synthesised fBm series to a fresh monitor.
func benchMonitorAdd(b *testing.B, reg *agingmf.Registry) {
	b.Helper()
	mon, err := agingmf.NewMonitor(agingmf.DefaultMonitorConfig())
	if err != nil {
		b.Fatal(err)
	}
	mon.Instrument(reg)
	xs, err := agingmf.FBM(1<<16, 0.6, agingmf.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Add(xs[i%len(xs)])
	}
}

// BenchmarkMonitorAddUninstrumented is Add with no registry attached: the
// telemetry guard must keep this within noise (<2%) of the pre-telemetry
// BenchmarkMonitorAdd baseline.
func BenchmarkMonitorAddUninstrumented(b *testing.B) { benchMonitorAdd(b, nil) }

// BenchmarkMonitorAddInstrumented is Add with live counters, gauges and
// the latency histogram — the price of turning telemetry on.
func BenchmarkMonitorAddInstrumented(b *testing.B) {
	benchMonitorAdd(b, agingmf.NewRegistry())
}

// BenchmarkMachineStep measures one simulator tick under a mixed process
// population.
func BenchmarkMachineStep(b *testing.B) {
	mcfg := agingmf.DefaultMachineConfig()
	mcfg.SwapPages = 1 << 24 // effectively unbounded: no crash mid-benchmark
	m, err := agingmf.NewMachine(mcfg, agingmf.NewRand(2))
	if err != nil {
		b.Fatal(err)
	}
	specs := []agingmf.ProcSpec{
		{Name: "leaky", BaseWorkingSet: 512, ChurnPages: 64, LeakPagesPerTick: 0.5},
		{Name: "bursty", BaseWorkingSet: 256, ChurnPages: 128, BurstOnProb: 0.05, BurstOffProb: 0.2, BurstMultiplier: 4},
		{Name: "steady", BaseWorkingSet: 1024, ChurnPages: 32},
	}
	for _, s := range specs {
		if _, err := m.Spawn(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMFDFA measures a full multifractal analysis of a 16Ki-sample
// series.
func BenchmarkMFDFA(b *testing.B) {
	xs, err := agingmf.LognormalCascadeNoise(14, 0.4, agingmf.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	cfg := agingmf.DefaultMFDFAConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.MFDFA(xs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFGNDaviesHarte measures fGn synthesis (ablation partner of the
// O(n^2) Hosking method below).
func BenchmarkFGNDaviesHarte(b *testing.B) {
	rng := agingmf.NewRand(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.FGNDaviesHarte(1<<14, 0.7, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFGNHosking is the exact O(n^2) synthesis on a smaller n for
// comparison with Davies-Harte.
func BenchmarkFGNHosking(b *testing.B) {
	rng := agingmf.NewRand(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.FGNHosking(1<<11, 0.7, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOscillationTrajectory measures the batch Hölder estimator.
func BenchmarkOscillationTrajectory(b *testing.B) {
	xs, err := agingmf.FBM(1<<14, 0.5, agingmf.NewRand(6))
	if err != nil {
		b.Fatal(err)
	}
	s := agingmf.SeriesFromValues("bench", xs)
	cfg := agingmf.DefaultHolderConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.OscillationTrajectory(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHurstDFA measures the monofractal baseline estimator.
func BenchmarkHurstDFA(b *testing.B) {
	xs, err := agingmf.FGNDaviesHarte(1<<14, 0.7, agingmf.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.DFA(xs, 1); err != nil {
			b.Fatal(err)
		}
	}
}
