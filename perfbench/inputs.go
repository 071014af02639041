package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"agingmf/internal/memsim"
	"agingmf/internal/source"
	simload "agingmf/internal/workload"
)

// scenario is one machine class of the input pool. The two classes
// mirror the leak-crash and frag-crash scenarios of the rejuvenation
// campaign (internal/experiment/rejuvenation.go): a slow leak that
// ramps free memory down to exhaustion, and allocation churn that
// fragments RAM into paging and death.
type scenario struct {
	name string
	mem  memsim.Config
	load simload.DriverConfig
}

func scenarios() []scenario {
	leak := memsim.DefaultConfig()
	leak.RAMPages = 16384
	leak.SwapPages = 6144
	leak.LowWatermark = 256
	leakLoad := simload.DefaultDriverConfig()
	leakLoad.Server.LeakPagesPerTick = 3.5

	frag := memsim.DefaultConfig()
	frag.RAMPages = 16384
	frag.SwapPages = 6144
	frag.LowWatermark = 256
	frag.FragPerMegaChurn = 600
	frag.FragCapFraction = 0.95
	fragLoad := simload.DefaultDriverConfig()
	fragLoad.Server = &memsim.ProcSpec{
		Name:           "server",
		BaseWorkingSet: 2048,
		ChurnPages:     160,
	}
	fragLoad.ClientRate = 1.2

	return []scenario{
		{name: "leak-crash", mem: leak, load: leakLoad},
		{name: "frag-crash", mem: frag, load: fragLoad},
	}
}

// pool is the seeded set of machine lives every source's trace is cut
// from: the concatenated counter streams of a few simulated machines,
// each run to a crash, rebooted through SimSource.Reboot, and run on.
// Every machine's stretch ends on a crash, so the pool read cyclically
// is a sequence of whole lives: the wrap from the last sample back to
// the first is a crash followed by a fresh boot.
type pool struct {
	free, swap []float64
	// boots holds the index of the first sample of every life (sorted;
	// boots[0] == 0), and isBoot marks the same indexes.
	boots  []int
	isBoot []bool
}

func (p *pool) len() int { return len(p.free) }

// errNoCrash reports a machine that did not crash within its tick budget.
var errNoCrash = errors.New("machine did not crash")

// buildPool simulates `machines` machines (alternating the scenarios)
// until each has produced at least minSamples samples and then crashed.
// Machines are simulated on `workers` goroutines; the result depends
// only on seed.
func buildPool(seed int64, machines, minSamples, workers int) (*pool, error) {
	type stretch struct {
		free, swap []float64
		boots      []int
		err        error
	}
	out := make([]stretch, machines)
	scs := scenarios()
	var wg sync.WaitGroup
	next := make(chan int, machines)
	for i := 0; i < machines; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sc := scs[i%len(scs)]
				f, s, b, err := simulate(seed*7919+int64(i), sc, minSamples)
				out[i] = stretch{f, s, b, err}
			}
		}()
	}
	wg.Wait()
	p := &pool{}
	for i, st := range out {
		if st.err != nil {
			return nil, fmt.Errorf("pool machine %d (%s): %w", i, scs[i%len(scs)].name, st.err)
		}
		base := len(p.free)
		for _, b := range st.boots {
			p.boots = append(p.boots, base+b)
		}
		p.free = append(p.free, st.free...)
		p.swap = append(p.swap, st.swap...)
	}
	p.isBoot = make([]bool, p.len())
	for _, b := range p.boots {
		p.isBoot[b] = true
	}
	return p, nil
}

// simulate runs one machine through crash/reboot cycles and returns its
// counter stream and the index of every life's first sample.
func simulate(seed int64, sc scenario, minSamples int) (free, swap []float64, boots []int, err error) {
	maxTicks := 64 * minSamples
	sim, err := source.NewSim(source.SimConfig{
		Seed: seed, Machine: sc.mem, Workload: sc.load, MaxTicks: maxTicks,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ctx := context.Background()
	boots = []int{0}
	for {
		it, err := sim.Next(ctx)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, nil, nil, errNoCrash
			}
			return nil, nil, nil, err
		}
		for _, p := range it.Pairs {
			free = append(free, p[0])
			swap = append(swap, p[1])
		}
		if it.Crash == memsim.CrashNone {
			continue
		}
		if len(free) >= minSamples {
			return free, swap, boots, nil
		}
		if err := sim.Reboot(); err != nil {
			return nil, nil, nil, err
		}
		boots = append(boots, len(free))
	}
}

// trace is one source's counter stream: the pool read cyclically from
// offset. With period > 0 the samples after the first lead repeat with
// that period, so every round can resend the same pre-encoded bytes.
type trace struct {
	p      *pool
	offset int
	lead   int
	period int
}

// index maps trace sample k to its pool index.
func (t trace) index(k int) int {
	if t.period > 0 && k >= t.lead {
		k = t.lead + (k-t.lead)%t.period
	}
	return (t.offset + k) % t.p.len()
}

func (t trace) at(k int) (free, swap float64) {
	i := t.index(k)
	return t.p.free[i], t.p.swap[i]
}

// columns materializes samples [from, to) of the trace.
func (t trace) columns(from, to int) (free, swap []float64) {
	free = make([]float64, 0, to-from)
	swap = make([]float64, 0, to-from)
	for k := from; k < to; k++ {
		f, s := t.at(k)
		free = append(free, f)
		swap = append(swap, s)
	}
	return free, swap
}

// bootsIn counts the life starts strictly inside samples [from, to) of
// the trace: each one is a crash followed by a reboot. A period wrap is
// not one (it jumps to another point of the pool).
func (t trace) bootsIn(from, to int) int {
	n := 0
	P := t.p.len()
	for k := from + 1; k < to; k++ {
		i, j := t.index(k-1), t.index(k)
		if t.p.isBoot[j] && i == (j+P-1)%P {
			n++
		}
	}
	return n
}

// checkHonest is the honest-data guard for one trace window: it must
// contain at least one crash and reboot, and its free-memory counter
// must not be a constant-step ramp (a ramp lets the estimator's
// regression memo skip its work).
func (t trace) checkHonest(from, to int) error {
	if t.bootsIn(from, to) == 0 {
		return fmt.Errorf("trace window [%d,%d) holds no crash and reboot", from, to)
	}
	steps := map[float64]int{}
	top := 0
	for k := from + 1; k < to; k++ {
		a, _ := t.at(k - 1)
		b, _ := t.at(k)
		steps[b-a]++
		if steps[b-a] > top {
			top = steps[b-a]
		}
	}
	if n := to - from - 1; n > 0 && float64(top) > 0.9*float64(n) {
		return fmt.Errorf("trace window [%d,%d) is a constant-step ramp (%d of %d steps equal)", from, to, top, n)
	}
	return nil
}

// pickOffsets draws one trace offset per source such that a life
// start (a crash and reboot) lands at a uniformly drawn trace position
// in [lo, hi], and the life it starts lasts at least minLife samples.
func pickOffsets(rng *rand.Rand, p *pool, sources, lo, hi, minLife int) ([]int, error) {
	P := p.len()
	var cands []int // boots whose life lasts at least minLife
	for i, b := range p.boots {
		next := p.boots[(i+1)%len(p.boots)]
		if life := ((next-b)%P+P-1)%P + 1; life >= minLife {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 || lo < 0 || hi < lo {
		return nil, fmt.Errorf("no life of %d samples to place in [%d,%d]", minLife, lo, hi)
	}
	out := make([]int, sources)
	for i := range out {
		b := cands[rng.Intn(len(cands))]
		at := lo + rng.Intn(hi-lo+1)
		out[i] = ((b-at)%P + P) % P
	}
	return out, nil
}
