package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"agingmf/internal/control"
	"agingmf/internal/detect"
	"agingmf/internal/ingest"
)

// workload is one traffic mix the benchmark drives.
type workload struct {
	name, why string
	text      bool // single-sample text lines, or binary frames
	sources   int  // monitored machines
	frame     int  // samples per wire unit
	detectors []string
	recorder  int     // flight-recorder depth (0 = off)
	conns     int     // producer connections
	rate      float64 // offered samples/s of the paced (latency) phase
	burst     int     // units a source sends back to back (an agent's flush); 0 = 1
	cycle     int     // samples per source per round
	warm      bool    // restore a snapshot of warmed detectors at start
	nodes     int     // cluster nodes (0 = one plain server)
	// verifyEvery selects the sources the oracle checks: those with
	// (index + seed) % verifyEvery == 0, so consecutive seeds cover all.
	verifyEvery int
}

// inputs is everything a run sends, made from the seed before any clock
// starts.
type inputs struct {
	w      *workload
	seed   int64
	pool   *pool
	plan   *wirePlan
	lead   int               // warm samples per source, folded before the window
	warm   map[string][]byte // source id -> warmed detector state
	verify []int             // sources the oracle checks
}

// warmLead is how many samples a holder monitor needs before its jump
// detector has a baseline: the estimator lag, one volatility window and
// the detector warmup.
func warmLead() int {
	c := daemonMonitor()
	return c.MaxRadius + c.VolatilityWindow + c.DetectorWarmup
}

// warmSlack bounds how many samples of the previous life a warmed
// source's trace starts with.
const warmSlack = 32

// poolMachines and poolSamples size the pool of machine lives: 32
// machines of at least 16384 samples each, about 180 lives.
const (
	poolMachines = 32
	poolSamples  = 16384
)

// prepare builds a run's inputs from the seed.
func prepare(w *workload, seed int64) (*inputs, error) {
	workers := runtime.GOMAXPROCS(0)
	p, err := buildPool(seed, poolMachines, poolSamples, workers)
	if err != nil {
		return nil, err
	}
	if w.sources%w.conns != 0 {
		return nil, fmt.Errorf("%d sources do not split evenly over %d connections", w.sources, w.conns)
	}
	in := &inputs{w: w, seed: seed, pool: p}
	rng := rand.New(rand.NewSource(seed))
	// Every trace holds a crash and reboot. A warmed source's trace
	// starts just before one, so its detectors warm up on the calm start
	// of a fresh life and watch that life age on the wire; otherwise the
	// reboot lands anywhere in the wire samples.
	lo, hi, minLife := 1, w.cycle-1, 1
	if w.warm {
		in.lead = warmLead()
		lo, hi, minLife = 1, warmSlack, warmSlack+in.lead
	}
	offs, err := pickOffsets(rng, p, w.sources, lo, hi, minLife)
	if err != nil {
		return nil, err
	}
	traces := make([]trace, w.sources)
	for s := range traces {
		traces[s] = trace{p: p, offset: offs[s], lead: in.lead, period: w.cycle}
		if err := traces[s].checkHonest(0, in.lead+w.cycle); err != nil {
			return nil, fmt.Errorf("honest-data guard, source %d: %w", s, err)
		}
	}
	in.plan, err = buildPlan(planConfig{
		text: w.text, frame: w.frame, conns: w.conns, cycle: w.cycle, burst: w.burst, base: in.lead, prefix: w.name,
	}, traces)
	if err != nil {
		return nil, err
	}
	for s := 0; s < w.sources; s++ {
		if (s+int(seed%int64(w.verifyEvery))+w.verifyEvery)%w.verifyEvery == 0 {
			in.verify = append(in.verify, s)
		}
	}
	if w.warm {
		in.warm, err = warmStates(w, in.plan, in.lead, workers)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// warmStates feeds every trace's lead into a fresh detector set and
// returns the saved states: the snapshot a long-running daemon would
// restart from.
func warmStates(w *workload, pl *wirePlan, lead, workers int) (map[string][]byte, error) {
	blobs := make([][]byte, len(pl.traces))
	errs := make([]error, len(pl.traces))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := g; s < len(pl.traces); s += workers {
				set, err := detect.New(w.detectors, detectConfig())
				if err != nil {
					errs[s] = err
					continue
				}
				for k := 0; k < lead; k++ {
					set.Add(pl.traces[s].at(k))
				}
				blobs[s], errs[s] = set.SaveState()
			}
		}(g)
	}
	wg.Wait()
	out := make(map[string][]byte, len(blobs))
	for s, b := range blobs {
		if errs[s] != nil {
			return nil, errs[s]
		}
		out[pl.ids[s]] = b
	}
	return out, nil
}

// liveOut is the outcome of one untraced run.
type liveOut struct {
	rounds      int   // closed-loop rounds
	pacedRounds int   // rounds the paced phase sent
	samples     int64 // wire samples folded in the closed-loop rounds
	units       int   // wire units sent
	failedUnits int
	rates       []float64 // samples/s per closed-loop round
	drainsMs    []float64 // last byte written -> last sample folded, per closed-loop round
	cpuNs       float64
	latMs       []float64 // paced phase: latency of every sampled unit, in time order
	lateMs      []float64 // paced phase: write start minus due time of every unit
	pollsPerSec float64   // status reads per second of the paced phase's commit sampler
	setupS      []float64
	heapPerSrc  float64
	benchHeap   int64           // the benchmark's own heap, measured and left out of heapPerSrc
	alerts      []control.Alert // every alert received, all kinds, in order per bus
	gcCycles    int             // garbage collections during the closed-loop rounds
	gcPaced     int             // garbage collections during the paced phase
	subDrops    uint64
	steal       float64 // share of the machine's CPU time the host withheld during the window
	problems    []string

	// Collected only for the traced run.
	depths        []float64 // sampled shard queue depths
	skew          float64
	restoreS      float64
	stateBytesSrc float64
}

// totalSamples is every wire sample the run folded, closed-loop and paced.
func (o *liveOut) totalSamples() int64 {
	return o.samples / int64(max(o.rounds, 1)) * int64(o.rounds+o.pacedRounds)
}

// subscriber drains one bus subscription into a slice allocated up
// front, so that the heap reading after the first round sees no growth
// of the benchmark's own memory.
type subscriber struct {
	sub  *control.Subscription
	got  []control.Alert // owned by the draining goroutine until done closes
	n    atomic.Int64    // len(got), for the wait before the stop
	grew atomic.Bool     // got outgrew its initial capacity
	done chan struct{}
}

// alertBuffer is the bench subscription's queue length: deep enough
// that a burst of verdicts from one frame is never dropped. alertCap is
// the capacity of a subscriber's alert slice, far above the alerts any
// workload raises in one round.
const (
	alertBuffer = 1 << 14
	alertCap    = 1 << 15
)

func subscribe(reg *ingest.Registry) *subscriber {
	s := &subscriber{sub: reg.Alerts().Subscribe("perfbench", alertBuffer), done: make(chan struct{})}
	s.got = make([]control.Alert, 0, alertCap)
	go func() {
		defer close(s.done)
		for a := range s.sub.C() {
			if len(s.got) == cap(s.got) {
				s.grew.Store(true)
			}
			s.got = append(s.got, a)
			s.n.Add(1)
		}
	}()
	return s
}

// cpuTime is the process's user+system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuTicks is the machine's CPU time from /proc/stat: steal (time the
// hypervisor ran something else on a virtual CPU) and the total.
type cpuTicks struct{ steal, total uint64 }

// readSteal reads the machine's CPU ticks; zero where /proc/stat is
// missing.
func readSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// share is the steal share of the ticks between t and later.
func (t cpuTicks) share(later cpuTicks) float64 {
	if later.total <= t.total {
		return 0
	}
	return float64(later.steal-t.steal) / float64(later.total-t.total)
}

// heapInuse collects garbage and returns the bytes in use; the second
// cycle empties the pools' victim caches.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// setupReps bounds how often a run sets the daemon up to time setup_s.
const (
	setupMinReps = 3
	setupMaxReps = 200
	setupBudget  = 500 * time.Millisecond
)

// setUp starts the daemon repeatedly and returns the last fleet, which
// serves the run, with every set-up time. Set-ups that took under 5 ms
// the time before are timed with the collector off, so that a
// collection of the inputs' heap, which outlasts such a set-up many
// times, cannot land in some of them and not others. Slow set-ups (a
// snapshot restore) run with it on, as the daemon runs them. Garbage is
// collected between set-ups, untimed.
func setUp(w *workload, snapshot string) (*fleet, []float64, error) {
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var (
		f     *fleet
		times []float64
		spent time.Duration
		last  time.Duration
	)
	for rep := 0; rep < setupMaxReps && (rep < setupMinReps || spent < setupBudget); rep++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
		if rep%16 == 0 || last >= 5*time.Millisecond {
			runtime.GC()
		}
		// Every set-up starts from a quiet process, as a daemon start
		// does: the previous teardown's goroutines and sockets have
		// finished, so they do not overlap some set-ups and not others.
		time.Sleep(2 * time.Millisecond)
		if fast := last > 0 && last < 5*time.Millisecond; !fast {
			debug.SetGCPercent(gcPercent)
		}
		t0 := time.Now()
		var err error
		f, err = startFleet(w, snapshot)
		last = time.Since(t0)
		debug.SetGCPercent(-1)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		spent += last
		times = append(times, last.Seconds())
	}
	return f, times, nil
}

// pacedShare is the part of the timed window given to the paced phase;
// the closed-loop rounds take the rest.
const pacedShare = 3.0 / 8

// runLive sets the daemon up, drives the inputs through it for the
// timed window, checks every output, and tears it down. The window
// holds closed-loop rounds (throughput, CPU, heap) and then the paced
// phase (latency). collect adds the traced run's health counters.
func runLive(in *inputs, seconds int, tmp string, collect bool) (*liveOut, error) {
	w, pl := in.w, in.plan
	out := &liveOut{}
	snapshot := ""
	if in.warm != nil {
		snapshot = filepath.Join(tmp, "warm.snap")
		if err := ingest.WriteSnapshot(snapshot, in.warm); err != nil {
			return nil, err
		}
	}

	// Heap with the inputs encoded and no daemon yet.
	heapBase := heapInuse()
	f, setupS, err := setUp(w, snapshot)
	if err != nil {
		return nil, err
	}
	defer f.close()
	out.setupS = setupS
	if in.warm != nil && f.srvs[0].Registry().NumSources() != w.sources {
		return nil, fmt.Errorf("restored %d sources, want %d", f.srvs[0].Registry().NumSources(), w.sources)
	}
	conns := make([]net.Conn, w.conns)
	for c := range conns {
		conn, err := net.Dial("tcp", f.srvs[0].TCPAddr().String())
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		conns[c] = conn
	}
	// Everything the benchmark itself keeps from here on is allocated
	// between these two readings; their difference is left out of the
	// daemon's heap.
	heapSetUp := heapInuse()
	var subs []*subscriber
	for _, r := range f.regs() {
		subs = append(subs, subscribe(r))
	}
	pc := newPaced(w, pl, time.Duration(float64(seconds)*pacedShare*float64(time.Second)))
	out.rates = make([]float64, 0, 1024)
	out.drainsMs = make([]float64, 0, 1024)
	out.benchHeap = int64(heapInuse()) - int64(heapSetUp)

	acc0, drop0, rej0 := f.counts()
	pub0 := f.alertsPublished()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}

	// The traced run samples the shard queues while the window runs.
	stopDepth := make(chan struct{})
	depthDone := make(chan struct{})
	go func() {
		defer close(depthDone)
		if !collect {
			return
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopDepth:
				return
			case <-tick.C:
				for _, r := range f.regs() {
					for _, st := range r.ShardStats() {
						out.depths = append(out.depths, float64(st.Depth))
					}
				}
			}
		}
	}()

	steal0 := readSteal()
	perRound := int64(pl.cycle) * int64(w.sources)
	closedFor := time.Duration(float64(seconds) * (1 - pacedShare) * float64(time.Second))
	var cpuPaused time.Duration
	windowStart := time.Now()
	var runErr error
	for {
		t0 := time.Since(windowStart)
		runErr = sendConns(conns, func(c int, conn net.Conn) error {
			return sendUnits(conn, pl.streams[c], pl.units, pl.byConn[c])
		})
		tw := time.Since(windowStart)
		if runErr == nil {
			runErr = waitFolded(f, acc0+uint64(perRound)*uint64(out.rounds+1), drop0, rej0)
		}
		t1 := time.Since(windowStart)
		out.units += len(pl.units)
		if runErr != nil {
			break
		}
		out.rounds++
		out.samples += perRound
		out.rates = append(out.rates, float64(perRound)/(t1-t0).Seconds())
		out.drainsMs = append(out.drainsMs, float64(t1-tw)/1e6)
		if out.rounds == 1 {
			// Heap once the first round has drained: lead plus one cycle
			// per source on every run, however many rounds follow. The
			// collections' CPU is not charged to the samples.
			c0, err := cpuTime()
			if err != nil {
				return nil, err
			}
			if runErr = f.drain(); runErr != nil {
				break
			}
			heap := float64(heapInuse()) - float64(heapBase) - float64(out.benchHeap)
			out.heapPerSrc = heap / float64(w.sources)
			for _, s := range subs {
				if s.grew.Load() {
					out.problems = append(out.problems, "bench alert slice outgrew its capacity before the heap reading")
				}
			}
			c1, err := cpuTime()
			if err != nil {
				return nil, err
			}
			cpuPaused += c1 - c0
		}
		if t1 >= closedFor {
			break
		}
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	out.gcCycles = int(ms.NumGC - gc0)
	if out.samples > 0 {
		out.cpuNs = float64(cpu1-cpu0-cpuPaused) / float64(out.samples)
	}
	if runErr == nil {
		accBefore := acc0 + uint64(perRound)*uint64(out.rounds)
		// As before the closed loop, the phase starts on a collected heap,
		// so that a collection of the inputs' heap left pending by the
		// rounds does not land in some runs' phase and not others'.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		gcPaced := ms.NumGC
		runErr = pc.run(f, conns, out.rounds, accBefore, drop0, rej0)
		runtime.ReadMemStats(&ms)
		out.gcPaced = int(ms.NumGC - gcPaced)
		out.units += pc.rounds * len(pl.units)
		if runErr == nil {
			out.pacedRounds = pc.rounds
			out.latMs, out.lateMs, out.pollsPerSec = pc.latMs, pc.lateMs, pc.pollsPerSec
		}
	}
	close(stopDepth)
	<-depthDone
	out.steal = steal0.share(readSteal())

	// Every alert of the window reaches the subscribers before they stop.
	if err := f.drain(); err != nil && runErr == nil {
		runErr = err
	}
	want := f.alertsPublished() - pub0
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got uint64
		for _, s := range subs {
			got += uint64(s.n.Load()) + s.sub.Dropped()
		}
		if got >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, s := range subs {
		s.sub.Cancel()
		<-s.done
		out.alerts = append(out.alerts, s.got...)
		out.subDrops += s.sub.Dropped()
	}

	if collect {
		if err := collectHealth(f, out, w); err != nil {
			return nil, err
		}
	}

	acc, drop, rej := f.counts()
	folded := int64(acc - acc0)
	if missing := int64(out.units)*int64(w.frame) - folded; missing > 0 {
		out.failedUnits += int((missing + int64(w.frame) - 1) / int64(w.frame))
	}
	out.failedUnits += int(rej - rej0)
	if runErr != nil {
		out.problems = append(out.problems, runErr.Error())
	}
	if drop != drop0 || rej != rej0 {
		out.problems = append(out.problems, fmt.Sprintf("%d samples dropped, %d units rejected", drop-drop0, rej-rej0))
	}
	if out.subDrops > 0 {
		out.problems = append(out.problems, fmt.Sprintf("bench subscriber dropped %d alerts", out.subDrops))
	}
	if runErr == nil {
		probs, err := checkOutputs(in, f, out)
		if err != nil {
			return nil, err
		}
		out.problems = append(out.problems, probs...)
	}
	if err := f.close(); err != nil {
		out.problems = append(out.problems, "shutdown: "+err.Error())
	}
	return out, nil
}

// paced is the latency phase: an open loop in which every connection
// sends its units at a fixed interval, so that the workload's offered
// rate (well below what the daemon sustains) holds whatever the
// daemon's speed. A unit's verdict latency is its commit time minus its
// due time, less the generator's own delay (see pacer.send); a backlog
// appears only where the daemon falls behind the schedule. The phase sends n positions of each connection's sequence on
// schedule, waits until they are folded, and then closes the last round
// with the rest of its units back to back, untimed, so that every source
// receives whole rounds.
type paced struct {
	pl     *wirePlan
	pacers []*pacer
	n      int         // positions per connection sent on schedule
	rounds int         // rounds the phase sends
	pos    []int32     // unit id -> position in its connection's round
	late   [][]float64 // per connection and position: lateness in ms
	from   [][]int64   // per connection and position: latency start, ns after the epoch

	latMs, lateMs []float64
	pollsPerSec   float64
}

// newPaced schedules a phase of the given length at the workload's rate.
func newPaced(w *workload, pl *wirePlan, phase time.Duration) *paced {
	interval := time.Duration(float64(w.frame*w.conns) / w.rate * float64(time.Second))
	// Whole bursts: positions rounded up to a multiple of the burst.
	n := (int((phase+interval-1)/interval) + pl.burst - 1) / pl.burst * pl.burst
	pc := &paced{pl: pl, n: n, pos: make([]int32, len(pl.units))}
	per := len(pl.byConn[0])
	pc.rounds = (pc.n + per - 1) / per
	for c, ids := range pl.byConn {
		offset := interval * time.Duration(c*pl.burst) / time.Duration(len(pl.byConn))
		pc.pacers = append(pc.pacers, &pacer{
			stream: pl.streams[c], units: pl.units, ids: ids, interval: interval, offset: offset, burst: pl.burst,
		})
		pc.late = append(pc.late, make([]float64, pc.n))
		pc.from = append(pc.from, make([]int64, pc.n))
		for k, id := range ids {
			pc.pos[id] = int32(k)
		}
	}
	return pc
}

// posOf maps a commit that brought source s to `samples` samples to the
// connection and schedule position of the unit that carried its last
// sample, when that unit was sent on schedule. r0 is the number of
// rounds sent before the phase.
func (pc *paced) posOf(r0, s int, samples int64) (conn, k int, ok bool) {
	r, id, ok := pc.pl.unitOf(s, int(samples-1))
	if !ok || r < r0 {
		return 0, 0, false
	}
	conn = int(pc.pl.units[id].conn)
	k = (r-r0)*len(pc.pl.byConn[conn]) + int(pc.pos[id])
	return conn, k, k < pc.n
}

// run sends the phase: r0 rounds, holding accBefore samples, are folded
// before it starts.
func (pc *paced) run(f *fleet, conns []net.Conn, r0 int, accBefore, drop0, rej0 uint64) error {
	pl := pc.pl
	cs := newCommitSampler(f, pl)
	cs.poll() // every source's last commit before the phase
	cs.commits = cs.commits[:0]
	stop := make(chan struct{})
	sampled := make(chan struct{})
	epoch := time.Now()
	go func() {
		defer close(sampled)
		cs.run(stop)
	}()
	err := sendConns(conns, func(c int, conn net.Conn) error {
		return pc.pacers[c].send(conn, epoch, pc.n, pc.late[c], pc.from[c])
	})
	if err == nil {
		err = waitFolded(f, accBefore+uint64(pc.n*len(conns)*pl.frame), drop0, rej0)
	}
	close(stop)
	<-sampled
	if err != nil {
		return err
	}
	elapsed := time.Since(epoch)
	if rest := pc.n % len(pl.byConn[0]); rest != 0 {
		err = sendConns(conns, func(c int, conn net.Conn) error {
			return sendUnits(conn, pl.streams[c], pl.units, pl.byConn[c][rest:])
		})
	}
	if err == nil {
		perRound := uint64(pl.cycle) * uint64(len(pl.ids))
		err = waitFolded(f, accBefore+perRound*uint64(pc.rounds), drop0, rej0)
	}
	if err != nil {
		return err
	}
	for _, c := range cs.commits {
		if conn, k, ok := pc.posOf(r0, int(c.src), c.samples); ok {
			pc.latMs = append(pc.latMs, float64(c.at-epoch.UnixNano()-pc.from[conn][k])/1e6)
		}
	}
	for _, l := range pc.late {
		pc.lateMs = append(pc.lateMs, l...)
	}
	pc.pollsPerSec = float64(cs.reads) / elapsed.Seconds()
	return nil
}

// commit is one sampled unit commit: the source, its sample count after
// the commit, and the commit's wall time in Unix ns.
type commit struct {
	src     int32
	samples int64
	at      int64
}

// commitSampler reads every source's status in turn. A status carries
// the source's sample count and the time of its last commit (LastSeen,
// stamped once a unit's verdicts are folded, just before its alerts are
// published), so a read that finds the count changed since the last one
// yields the exact commit time of the unit that ends at that count.
// Units committed earlier between two reads are not sampled. The count
// is stored just before the time; a read that finds a new count with
// the previous time is discarded and the source read again next poll.
type commitSampler struct {
	f       *fleet
	pl      *wirePlan
	regs    []*ingest.Registry
	last    []seen
	commits []commit
	reads   int
	every   time.Duration
}

// seen is one read of a source: its sample count and the time of its
// last commit.
type seen struct{ samples, at int64 }

func newCommitSampler(f *fleet, pl *wirePlan) *commitSampler {
	n := len(pl.ids)
	return &commitSampler{
		f: f, pl: pl, regs: make([]*ingest.Registry, n), last: make([]seen, n),
		commits: make([]commit, 0, 1<<16),
		// One read per source every 20µs·sources, within 1–20 ms.
		every: min(20*time.Millisecond, max(time.Millisecond, time.Duration(n)*20*time.Microsecond)),
	}
}

func (cs *commitSampler) poll() {
	for s, id := range cs.pl.ids {
		if cs.regs[s] == nil {
			if cs.regs[s], _ = cs.f.holder(id); cs.regs[s] == nil {
				continue
			}
		}
		st, _ := cs.regs[s].Source(id)
		cs.reads++
		cur := seen{st.Samples, st.LastSeen.UnixNano()}
		if newCommit(cs.last[s], cur) {
			cs.last[s] = cur
			cs.commits = append(cs.commits, commit{int32(s), cur.samples, cur.at})
		}
	}
}

// newCommit reports whether read cur of a source shows a commit after
// read prev with its own time: the count moved and so did the time.
func newCommit(prev, cur seen) bool {
	return cur.samples != prev.samples && cur.at != prev.at
}

// run polls every cs.every until stop closes, then polls once more.
func (cs *commitSampler) run(stop <-chan struct{}) {
	tick := time.NewTicker(cs.every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			cs.poll()
			return
		case <-tick.C:
			cs.poll()
		}
	}
}

// errStalled reports a run whose samples stopped being folded.
var errStalled = errors.New("ingest made no progress for 30s")

// waitFolded polls until the fleet has folded target samples, failing
// on any drop or rejected unit, or when progress stops.
func waitFolded(f *fleet, target, drop0, rej0 uint64) error {
	last, lastAt := uint64(0), time.Now()
	for {
		acc, drop, rej := f.counts()
		if acc >= target {
			return nil
		}
		if drop != drop0 || rej != rej0 {
			return fmt.Errorf("%d samples dropped, %d units rejected", drop-drop0, rej-rej0)
		}
		if acc != last {
			last, lastAt = acc, time.Now()
		} else if time.Since(lastAt) > 30*time.Second {
			return errStalled
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkOutputs is the correctness gate: every source folded every
// sample, and each checked source's detector state and verdict alerts
// equal those of a fresh per-sample detector set fed the same trace.
func checkOutputs(in *inputs, f *fleet, out *liveOut) ([]string, error) {
	w, pl := in.w, in.plan
	total := in.lead + (out.rounds+out.pacedRounds)*pl.cycle
	var probs []string
	for _, id := range pl.ids {
		reg, ok := f.holder(id)
		if !ok {
			probs = append(probs, fmt.Sprintf("%s: held by no node", id))
			continue
		}
		st, _ := reg.Source(id)
		if st.Samples != int64(total) {
			probs = append(probs, fmt.Sprintf("%s: %d samples folded, want %d", id, st.Samples, total))
		}
	}
	oracles, err := runOracles(w.detectors, detectConfig(), pl.traces, in.verify, total, in.lead, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	verdicts := make(map[string][]verdict)
	for _, a := range out.alerts {
		if isVerdict(a.Kind) {
			verdicts[a.Source] = append(verdicts[a.Source], verdict{a.Detector, a.Counter, a.Sample})
		}
	}
	for i, s := range in.verify {
		id := pl.ids[s]
		reg, ok := f.holder(id)
		if !ok {
			continue
		}
		state, err := reg.MonitorState(id)
		if err != nil {
			probs = append(probs, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		st, _ := reg.Source(id)
		probs = append(probs, compareSource(id, oracles[i], int64(total),
			liveSource{state: state, samples: st.Samples, verdicts: verdicts[id]})...)
	}
	return probs, nil
}

// collectHealth records the traced run's shard and state counters once
// the load has drained.
func collectHealth(f *fleet, out *liveOut, w *workload) error {
	var acc []float64
	for _, r := range f.regs() {
		for _, st := range r.ShardStats() {
			acc = append(acc, float64(st.Accepted))
		}
	}
	sort.Float64s(acc)
	var sum float64
	for _, a := range acc {
		sum += a
	}
	if sum > 0 {
		out.skew = acc[len(acc)-1] / (sum / float64(len(acc)))
	}
	// State size and restore time of the fleet as it stands.
	states := make(map[string][]byte)
	for _, r := range f.regs() {
		ss, err := r.SnapshotStates()
		if err != nil {
			return err
		}
		for id, b := range ss {
			states[id] = b
			out.stateBytesSrc += float64(len(b))
		}
	}
	out.stateBytesSrc /= float64(len(states))
	cfg := registryConfig(w)
	cfg.Restore = states
	t0 := time.Now()
	reg, err := ingest.NewRegistry(cfg)
	if err != nil {
		return err
	}
	out.restoreS = time.Since(t0).Seconds()
	return reg.Close()
}

// tempDir makes the run's scratch directory under the build directory.
func tempDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}
