package stream

import (
	"fmt"
	"math"
)

// shortColumn is the column length from which PushColumns runs the
// extrema cascade; shorter columns take the per-sample Push loop. The
// cascade's fixed cost per column (the raw view copy and the deque
// rebuild over 2*Lag() samples) is what the cut-off amortizes: on the
// default five-rung ladder BenchmarkOscillationEstimatorPushColumns
// puts the crossover between 8 and 12 samples (2 vCPU Xeon, go1.24:
// frame 8 ~450 ns/sample either way, frame 12 ~300 cascade against
// ~400 per-sample), and a length-1 column costs what Push does.
const shortColumn = 10

// OscillationEstimator is the first pipeline stage: it consumes one raw
// counter sample per Push and emits the pointwise Hölder exponent of the
// stream, estimated by regressing log window oscillation on log radius
// over a ladder of window radii. The estimate at center t needs samples
// up to t+maxR, so output lags input by Lag() = max(radii) samples.
//
// The stage owns one sliding-extrema tracker per radius and a reusable
// regression scratch; consumed oscillations are trimmed eagerly, so
// steady-state Push allocates nothing and memory stays O(sum of radii)
// regardless of stream length.
type OscillationEstimator struct {
	radii []int
	logR  []float64
	maxR  int
	seen  int // total samples consumed (indices are absolute)
	trk   []*slidingExtrema

	// The regressor x-axis (log radii) is fixed for the life of the
	// stage, so its mean and centered sum of squares are computed once;
	// each Push then only accumulates the cross term. The per-iteration
	// arithmetic matches stats.OLS exactly, so estimates are bit-identical
	// to the full regression (persisted pre-refactor states depend on it).
	logRMean, sxx float64
	scratchO      []float64 // log-oscillation scratch, reused every Push

	// Memo of the last oscillation vector regressed by PushColumns.
	// alphaAt is a pure function of the per-rung oscillations, and window
	// extrema persist across many consecutive centers on real counter
	// streams, so the batch kernel caches the logarithms per rung and the
	// final slope for the whole vector, keyed on exact float64 equality.
	// A cache hit replays bit-identical results by construction; the memo
	// is not persisted state and never alters what alphaAt would return.
	memoOsc   []float64
	memoLog   []float64
	memoAlpha float64
	memoOK    bool

	// rawTail retains the most recent raw samples (up to tailCap =
	// 2*maxR, with amortized copy-down) so PushColumns can run the
	// extrema cascade over a contiguous view reaching back to the window
	// of the first center the batch completes. Derived state: it is never
	// persisted, and after a restore PushColumns falls back to the
	// per-sample Push loop until the tail has refilled.
	rawTail []float64
	tailCap int

	// Per-batch emission scratch: alphaMemoCols caches each tracker's osc
	// slice header and base here so the per-center loop indexes flat
	// arrays instead of chasing tracker pointers, and marks the centers
	// where any rung's oscillation changed in emitChanged. Derived state.
	emitOsc     [][]float64
	emitBase    []int
	emitChanged []uint8
}

// NewOscillationEstimator creates an estimator over the given radius
// ladder. At least two radii are required for the regression to be
// defined; callers choose the ladder policy (the aging monitor insists
// on >= 3 dyadic rungs, the offline trajectory code allows a degenerate
// fallback ladder).
func NewOscillationEstimator(radii []int) (*OscillationEstimator, error) {
	if len(radii) < 2 {
		return nil, fmt.Errorf("oscillation estimator: ladder %v too short: %w", radii, ErrBadConfig)
	}
	e := &OscillationEstimator{
		scratchO: make([]float64, 0, len(radii)),
	}
	for _, r := range radii {
		if r < 1 {
			return nil, fmt.Errorf("oscillation estimator: radius %d: %w", r, ErrBadConfig)
		}
		if r > e.maxR {
			e.maxR = r
		}
		e.radii = append(e.radii, r)
		e.logR = append(e.logR, math.Log(float64(r)))
		e.trk = append(e.trk, newSlidingExtrema(r))
	}
	sum := 0.0
	for _, lr := range e.logR {
		sum += lr
	}
	e.logRMean = sum / float64(len(e.logR))
	for _, lr := range e.logR {
		dx := lr - e.logRMean
		e.sxx += dx * dx
	}
	e.memoOsc = make([]float64, len(e.radii))
	e.memoLog = make([]float64, len(e.radii))
	for i := range e.memoOsc {
		e.memoOsc[i] = -1 // oscillations are >= 0, so no vector matches yet
	}
	e.tailCap = 2 * e.maxR // the history before the first new center's widest window
	e.rawTail = make([]float64, 0, 2*e.tailCap)
	return e, nil
}

// Lag returns the structural delay, in raw samples, between a sample
// arriving and the Hölder estimate centered on it: the estimator needs
// max(radii) samples of future context.
func (e *OscillationEstimator) Lag() int { return e.maxR }

// Seen returns how many raw samples have been consumed.
func (e *OscillationEstimator) Seen() int { return e.seen }

// Push consumes one raw sample. Once enough context has accumulated it
// returns the Hölder estimate for center seen-1-Lag() and true; the
// first estimate (center Lag()) is emitted by the 2*Lag()+1-th sample.
func (e *OscillationEstimator) Push(x float64) (float64, bool) {
	idx := e.seen
	e.seen++
	e.pushTail(x)
	for _, tr := range e.trk {
		tr.push(idx, x)
	}
	// The centered estimate at index t requires samples up to t+maxR, so
	// when sample n-1 arrives we can evaluate t = n-1-maxR.
	t := e.seen - 1 - e.maxR
	if t < e.maxR {
		return 0, false
	}
	alpha := e.alphaAt(t)
	// Oscillations at centers <= t are never read again.
	for _, tr := range e.trk {
		tr.trim(t + 1)
	}
	return alpha, true
}

// PushColumns consumes a whole column of raw samples and appends the
// Hölder estimates it completes to out, returning the extended slice.
// It is the batch-first form of Push — the state after PushColumns(xs)
// is byte-identical to len(xs) calls of Push (asserted by the parity
// tests and FuzzPushColumns) — restructured for throughput:
//
//   - every rung's oscillations come from one dyadic extrema cascade
//     over the contiguous view rawTail ++ xs (extremaCascade): O(log
//     max(r)) branch-free passes in total instead of one monotonic-deque
//     pass per rung; the deques are then rebuilt from each rung's final
//     window;
//   - consumed oscillations are trimmed once at the end of the batch
//     instead of once per sample, turning n copy-downs into one (the
//     final osc/oscBase are the same either way);
//   - the log-oscillation regression is memoized on the exact
//     oscillation vector, so runs of unchanged window extrema — the
//     common case for real, quantized memory counters — skip the
//     math.Log calls entirely.
//
// Two kinds of column take the per-sample Push loop instead: a column
// shorter than shortColumn, and a column that arrives after a restore
// before the raw tail holds 2*Lag() samples again, since the cascade
// needs that history. The cascade's scratch is pooled across
// estimators.
func (e *OscillationEstimator) PushColumns(xs []float64, out []float64) []float64 {
	tail := e.rawTail[max(0, len(e.rawTail)-e.tailCap):]
	if len(xs) < shortColumn || (len(tail) < e.tailCap && e.seen > len(tail)) {
		for _, x := range xs {
			if a, ok := e.Push(x); ok {
				out = append(out, a)
			}
		}
		return out
	}
	idx0 := e.seen
	// Contiguous raw view [a0, idx0+len(xs)): retained tail + this batch.
	a0 := idx0 - len(tail)
	sc := cascadePool.Get().(*cascadeScratch)
	a := append(append(sc.raw[:0], tail...), xs...)
	e.extremaCascade(a, a0, idx0, sc)
	e.rawTail = append(e.rawTail[:0], a[len(a)-min(len(a), e.tailCap):]...)
	sc.raw = a[:0]
	cascadePool.Put(sc)
	e.seen += len(xs)
	// Same emission rule as Push: sample n-1 completes center t = n-1-maxR,
	// which is evaluated once t >= maxR.
	tEnd := e.seen - 1 - e.maxR
	tStart := idx0 - e.maxR
	if tStart < e.maxR {
		tStart = e.maxR
	}
	if tEnd < tStart {
		return out
	}
	out = e.alphaMemoCols(tStart, tEnd, out)
	for _, tr := range e.trk {
		tr.trim(tEnd + 1)
	}
	return out
}

// alphaMemoCols appends alphaMemo(t) for every center in [tStart, tEnd]
// to out. It is the emission loop of PushColumns restructured around the
// memo's observation — the alpha changes only at centers where some
// rung's oscillation changes — in two passes: each rung's oscillation
// column is scanned sequentially once, flagging change centers, and the
// emission loop then replays the memoized alpha between flags and
// recomputes only at them (reloading every rung there, which is exactly
// the vector the per-center memo comparison would have seen). The
// recompute points, memo updates and arithmetic match alphaMemo
// step-for-step, so the emitted values — and the memo state left behind
// — are bit-identical.
func (e *OscillationEstimator) alphaMemoCols(tStart, tEnd int, out []float64) []float64 {
	oscs := e.emitOsc[:0]
	bases := e.emitBase[:0]
	for _, tr := range e.trk {
		oscs = append(oscs, tr.osc)
		bases = append(bases, tr.oscBase)
	}
	e.emitOsc, e.emitBase = oscs[:0], bases[:0]
	nT := tEnd - tStart + 1
	if cap(e.emitChanged) < nT {
		e.emitChanged = make([]uint8, nT+nT/4)
	}
	changed := e.emitChanged[:nT]
	for i := range changed {
		changed[i] = 0
	}
	if !e.memoOK {
		changed[0] = 1
	}
	memoOsc, memoLog := e.memoOsc, e.memoLog
	for i := range oscs {
		col := oscs[i][tStart-bases[i] : tEnd+1-bases[i]]
		prev := memoOsc[i]
		for t, v := range col {
			changed[t] |= flag(v != prev)
			prev = v
		}
	}
	alpha := e.memoAlpha
	for t, ch := range changed {
		if ch != 0 {
			for i := range oscs {
				osc := oscs[i][tStart+t-bases[i]]
				if osc != memoOsc[i] {
					memoOsc[i] = osc
					if osc > 0 {
						memoLog[i] = math.Log(osc)
					}
				}
			}
			alpha = e.memoSlope()
		}
		out = append(out, alpha)
	}
	return out
}

// flag is b as 0/1; the compiler lowers it to a branch-free SETcc, so
// the change-flag scan does not mispredict on noisy oscillations.
func flag(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// memoSlope recomputes the regression slope from the memoized
// oscillation vector and re-arms the memo. Shared tail of alphaMemo and
// alphaMemoCols.
func (e *OscillationEstimator) memoSlope() float64 {
	alpha := 1.0 // locally constant / degenerate ladder: maximally smooth
	if e.sxx != 0 {
		ok := true
		for _, osc := range e.memoOsc {
			if osc <= 0 {
				ok = false
				break
			}
		}
		if ok {
			sum := 0.0
			for _, y := range e.memoLog {
				sum += y
			}
			my := sum / float64(len(e.memoLog))
			var sxy float64
			for i, y := range e.memoLog {
				sxy += (e.logR[i] - e.logRMean) * (y - my)
			}
			alpha = ClampAlpha(sxy / e.sxx)
		}
	}
	e.memoAlpha = alpha
	e.memoOK = true
	return alpha
}

// pushTail appends x to the raw-sample tail, keeping at least tailCap
// history with amortized O(1) copy-down (the backing array holds twice
// the cap).
func (e *OscillationEstimator) pushTail(x float64) {
	if len(e.rawTail) == cap(e.rawTail) {
		n := copy(e.rawTail, e.rawTail[len(e.rawTail)-e.tailCap:])
		e.rawTail = e.rawTail[:n]
	}
	e.rawTail = append(e.rawTail, x)
}

// alphaMemo is alphaAt with the pure-function memo described on the
// struct fields: identical oscillation vector in, identical bits out.
func (e *OscillationEstimator) alphaMemo(t int) float64 {
	same := e.memoOK
	for i, tr := range e.trk {
		osc := tr.at(t)
		if osc != e.memoOsc[i] {
			same = false
			e.memoOsc[i] = osc
			if osc > 0 {
				e.memoLog[i] = math.Log(osc)
			}
		}
	}
	if same {
		return e.memoAlpha
	}
	return e.memoSlope()
}

// alphaAt computes the oscillation Hölder exponent at raw index t from
// the incrementally maintained window extrema. It is FitAlpha with the
// x-axis statistics hoisted out: only the y mean and the cross term are
// data-dependent, and the slope is all the caller needs.
func (e *OscillationEstimator) alphaAt(t int) float64 {
	logO := e.scratchO[:0]
	for _, tr := range e.trk {
		osc := tr.at(t)
		if osc <= 0 {
			return 1 // locally constant: maximally smooth
		}
		logO = append(logO, math.Log(osc))
	}
	if e.sxx == 0 {
		return 1 // degenerate ladder of identical radii
	}
	sum := 0.0
	for _, y := range logO {
		sum += y
	}
	my := sum / float64(len(logO))
	var sxy float64
	for i, y := range logO {
		sxy += (e.logR[i] - e.logRMean) * (y - my)
	}
	return ClampAlpha(sxy / e.sxx)
}

// OscillationEstimatorState is the persistable state of the stage.
type OscillationEstimatorState struct {
	Radii    []int
	Seen     int
	Trackers []ExtremaState
}

// State snapshots the stage.
func (e *OscillationEstimator) State() OscillationEstimatorState {
	st := OscillationEstimatorState{
		Radii: append([]int(nil), e.radii...),
		Seen:  e.seen,
	}
	for _, tr := range e.trk {
		st.Trackers = append(st.Trackers, tr.state())
	}
	return st
}

// RestoreOscillationEstimator rebuilds an estimator from a snapshot.
func RestoreOscillationEstimator(st OscillationEstimatorState) (*OscillationEstimator, error) {
	e, err := NewOscillationEstimator(st.Radii)
	if err != nil {
		return nil, err
	}
	if len(st.Trackers) != len(e.trk) || st.Seen < 0 {
		return nil, fmt.Errorf("oscillation estimator: %d tracker states for ladder %v: %w",
			len(st.Trackers), st.Radii, ErrBadState)
	}
	for i, ts := range st.Trackers {
		if ts.R != e.radii[i] {
			return nil, fmt.Errorf("oscillation estimator: tracker %d radius %d != %d: %w",
				i, ts.R, e.radii[i], ErrBadState)
		}
		tr, err := restoreExtrema(ts)
		if err != nil {
			return nil, fmt.Errorf("oscillation estimator: tracker %d: %w", i, err)
		}
		e.trk[i] = tr
	}
	e.seen = st.Seen
	return e, nil
}
