package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"

	"agingmf/internal/control"
	"agingmf/internal/detect"
)

// verdict is one jump or recalibrate verdict as the gate compares it.
type verdict struct {
	detector, counter string
	sample            int
}

// isVerdict reports whether an alert kind is a detector verdict (the
// kinds the gate and the latency metrics use; phase changes carry a
// batch-end count, not the emitting sample).
func isVerdict(kind string) bool {
	return kind == control.KindJump || kind == control.KindRecalibrate
}

// oracleOut is what a fresh per-sample detector set makes of one trace.
type oracleOut struct {
	state [sha256.Size]byte
	// verdicts are the events fired by samples [from, total), in order.
	verdicts []verdict
}

// runOracle feeds samples [0, total) of tr one at a time into a fresh
// detect.MonitorSet and records its final state and the verdicts fired
// by samples from on. Every event must carry the index of the sample
// whose Add emitted it: the latency metrics rely on that mapping.
func runOracle(kinds []string, cfg detect.Config, tr trace, total, from int) (oracleOut, error) {
	set, err := detect.New(kinds, cfg)
	if err != nil {
		return oracleOut{}, err
	}
	var out oracleOut
	for k := 0; k < total; k++ {
		f, s := tr.at(k)
		for _, ev := range set.Add(f, s) {
			if ev.Sample != k {
				return oracleOut{}, fmt.Errorf("oracle: %s event at sample %d reports sample %d", ev.Detector, k, ev.Sample)
			}
			if k >= from {
				a := control.FromDetectEvent("", ev)
				out.verdicts = append(out.verdicts, verdict{a.Detector, a.Counter, a.Sample})
			}
		}
	}
	blob, err := set.SaveState()
	if err != nil {
		return oracleOut{}, err
	}
	out.state = sha256.Sum256(blob)
	return out, nil
}

// liveSource is what the daemon made of one source.
type liveSource struct {
	state    []byte
	samples  int64
	verdicts []verdict // in the order the bench subscriber received them
}

// compareSource lists every way the live outputs of source id differ
// from the oracle's.
func compareSource(id string, want oracleOut, wantSamples int64, got liveSource) []string {
	var bad []string
	if got.samples != wantSamples {
		bad = append(bad, fmt.Sprintf("%s: %d samples folded, want %d", id, got.samples, wantSamples))
	}
	if h := sha256.Sum256(got.state); !bytes.Equal(h[:], want.state[:]) {
		bad = append(bad, fmt.Sprintf("%s: detector state differs from the per-sample oracle", id))
	}
	if len(got.verdicts) != len(want.verdicts) {
		bad = append(bad, fmt.Sprintf("%s: %d verdict alerts received, oracle fired %d", id, len(got.verdicts), len(want.verdicts)))
		return bad
	}
	for i := range want.verdicts {
		if got.verdicts[i] != want.verdicts[i] {
			bad = append(bad, fmt.Sprintf("%s: verdict %d is %+v, oracle %+v", id, i, got.verdicts[i], want.verdicts[i]))
			break
		}
	}
	return bad
}

// runOracles computes the oracle of every listed source on `workers`
// goroutines.
func runOracles(kinds []string, cfg detect.Config, traces []trace, verify []int, total, from, workers int) ([]oracleOut, error) {
	out := make([]oracleOut, len(verify))
	errs := make([]error, len(verify))
	next := make(chan int, len(verify))
	for i := range verify {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = runOracle(kinds, cfg, traces[verify[i]], total, from)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("source %d: %w", verify[i], err)
		}
	}
	return out, nil
}
