package stream

import "sync"

// idxVal is one deque entry of the sliding-extrema tracker.
type idxVal struct {
	idx int
	v   float64
}

// deque is a fixed-capacity ring double-ended queue of idxVal. A
// monotonic deque over a window of w samples never holds more than w
// entries, so the backing array is allocated once and reused forever —
// unlike slicing (`d = d[1:]`), which leaks front capacity and forces
// amortized reallocations on the hot path.
type deque struct {
	buf  []idxVal
	head int // index of the front element
	n    int // number of elements
}

func newDeque(capacity int) deque {
	return deque{buf: make([]idxVal, capacity)}
}

func (d *deque) front() idxVal { return d.buf[d.head] }

func (d *deque) back() idxVal {
	i := d.head + d.n - 1
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	return d.buf[i]
}

func (d *deque) pushBack(e idxVal) {
	i := d.head + d.n
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	d.buf[i] = e
	d.n++
}

func (d *deque) popBack() { d.n-- }

func (d *deque) popFront() {
	d.head++
	if d.head >= len(d.buf) {
		d.head = 0
	}
	d.n--
}

// slidingExtrema incrementally tracks max-min over centered windows of
// one radius of the raw sample stream, using monotonic ring deques:
// amortized O(1) per sample and zero steady-state allocations. The
// oscillation for center c becomes available once sample c+r has been
// consumed. Entries are self-contained (index + value), so the tracker
// needs no access to the raw history and supports bounded-memory
// operation via trim.
type slidingExtrema struct {
	r, w int
	maxD deque // values decreasing
	minD deque // values increasing
	osc  []float64
	// oscBase is the center index of osc[0].
	oscBase int
}

func newSlidingExtrema(r int) *slidingExtrema {
	w := 2*r + 1
	// Capacity w+1: push appends the new entry before evicting the one
	// that just left the window, so the deque transiently holds w+1.
	return &slidingExtrema{
		r:       r,
		w:       w,
		maxD:    newDeque(w + 1),
		minD:    newDeque(w + 1),
		oscBase: r,
	}
}

// push consumes sample (idx, x); idx must increase by one per call. It
// records the oscillation of the newly completed window, if any.
func (s *slidingExtrema) push(idx int, x float64) {
	for s.maxD.n > 0 && s.maxD.back().v <= x {
		s.maxD.popBack()
	}
	s.maxD.pushBack(idxVal{idx: idx, v: x})
	for s.minD.n > 0 && s.minD.back().v >= x {
		s.minD.popBack()
	}
	s.minD.pushBack(idxVal{idx: idx, v: x})
	// Evict entries that fell out of the window ending at idx.
	lo := idx - s.w + 1
	for s.maxD.front().idx < lo {
		s.maxD.popFront()
	}
	for s.minD.front().idx < lo {
		s.minD.popFront()
	}
	if idx >= s.w-1 {
		// Window [idx-w+1, idx] is complete; center idx-r.
		s.osc = append(s.osc, s.maxD.front().v-s.minD.front().v)
	}
}

// at returns the oscillation for center t (t >= r, t+r consumed, and t
// not trimmed away).
func (s *slidingExtrema) at(t int) float64 {
	return s.osc[t-s.oscBase]
}

// cascadeScratch is PushColumns' per-call working memory: the contiguous
// raw view and the max/min arrays the dyadic cascade shrinks in place.
// It is O(batch) and shared through cascadePool, so an estimator holds
// none of it between calls.
type cascadeScratch struct {
	raw, mx, mn []float64
}

var cascadePool = sync.Pool{New: func() any { return new(cascadeScratch) }}

// extremaCascade appends to every tracker the oscillations completed by
// the samples at absolute indices [idx0, a0+len(a)), then rebuilds each
// tracker's deques. a is a contiguous raw view starting at absolute index
// a0; it must reach back to 0 or at least 2*max(r) samples before idx0.
//
// It is a dyadic sparse table built in place: mx[k]/mn[k] first hold the
// radius-1 extrema of center a0+1+k, and each doubling step turns
// radius-ρ extrema into radius-2ρ extrema of center a0+2ρ+k from the two
// radius-ρ windows at that center ±ρ, shrinking the valid length by 2ρ.
// A rung R with ρ <= R < 2ρ reads level ρ: its window [c-R, c+R] is the
// union of the radius-ρ windows at c-(R-ρ) and c+(R-ρ). One pass of
// ~log2(max r) levels thus serves any ladder — non-dyadic, unsorted or
// with duplicates — at two comparisons per sample per level.
//
// The builtin max/min compile to branch-free code, which matters on
// noisy counters where compare-and-branch mispredicts. A window's max
// and min are unique values whatever the algorithm, and for non-NaN
// input their difference is bit-identical to the deque tracker's (the
// two may pick differently signed zeros only when the whole window is
// zero, where either difference is +0), so the oscillations — and
// everything regressed from them — match repeated push exactly.
func (e *OscillationEstimator) extremaCascade(a []float64, a0, idx0 int, sc *cascadeScratch) {
	end := a0 + len(a) - 1
	if n := len(a) - 2; n > 0 {
		if cap(sc.mx) < n {
			sc.mx = make([]float64, n, n+n/4)
			sc.mn = make([]float64, n, n+n/4)
		}
		mx, mn := sc.mx[:n], sc.mn[:n]
		a1, a2 := a[1:n+1], a[2:n+2]
		for k, u := range a[:n] {
			v, w := a1[k], a2[k]
			mx[k] = max(u, v, w)
			mn[k] = min(u, v, w)
		}
		for rho := 1; ; rho *= 2 {
			for _, tr := range e.trk {
				if tr.r >= rho && tr.r < 2*rho {
					tr.emitCascade(mx[:n], mn[:n], a0+rho, rho, idx0, end)
				}
			}
			// Stop when no rung reads a wider level, or when wider
			// windows complete no center of this view.
			if 2*rho > e.maxR || n <= 2*rho {
				break
			}
			n -= 2 * rho
			lo, hi := mx[:n], mx[2*rho:]
			hi = hi[:len(lo)] // equal lengths: no bounds checks in the loops
			for k := range lo {
				lo[k] = max(lo[k], hi[k])
			}
			lo, hi = mn[:n], mn[2*rho:]
			hi = hi[:len(lo)]
			for k := range lo {
				lo[k] = min(lo[k], hi[k])
			}
		}
	}
	for _, tr := range e.trk {
		tr.rebuildDeques(a, a0, end)
	}
}

// emitCascade appends the oscillations of centers [max(r, idx0-r), end-r]
// — exactly those push would append for samples idx0..end — from the
// radius-rho cascade level mx/mn, whose element k is the window of
// center base+k (rho <= r < 2*rho).
func (s *slidingExtrema) emitCascade(mx, mn []float64, base, rho, idx0, end int) {
	cs := max(s.r, idx0-s.r)
	cnt := end - s.r - cs + 1
	if cnt <= 0 {
		return
	}
	k0 := len(s.osc)
	if need := k0 + cnt; cap(s.osc) < need {
		grown := make([]float64, k0, need+need/4)
		copy(grown, s.osc)
		s.osc = grown
	}
	s.osc = s.osc[:k0+cnt]
	dst := s.osc[k0:]
	c0 := cs - base
	d := s.r - rho
	if d == 0 {
		hiM, hiN := mx[c0:c0+cnt], mn[c0:c0+cnt]
		hiM, hiN = hiM[:len(dst)], hiN[:len(dst)]
		for j := range dst {
			dst[j] = hiM[j] - hiN[j]
		}
		return
	}
	loM, loN := mx[c0-d:c0-d+cnt], mn[c0-d:c0-d+cnt]
	hiM, hiN := mx[c0+d:c0+d+cnt], mn[c0+d:c0+d+cnt]
	loM, loN = loM[:len(dst)], loN[:len(dst)]
	hiM, hiN = hiM[:len(dst)], hiN[:len(dst)]
	for j := range dst {
		dst[j] = max(loM[j], hiM[j]) - min(loN[j], hiN[j])
	}
}

// rebuildDeques sets the monotonic deques to those repeated push leaves
// after consuming sample end: the strict running extrema of the window
// ending at end (or of the whole stream, while it is shorter than w),
// scanned newest to oldest so that the newest of equal values survives,
// exactly as push's `<=`/`>=` back-pops leave it. a is a contiguous raw
// view starting at absolute index a0 that covers that window.
func (s *slidingExtrema) rebuildDeques(a []float64, a0, end int) {
	mb, nb := s.maxD.buf, s.minD.buf
	mp, np := len(mb)-1, len(nb)-1
	curMax := a[end-a0]
	curMin := curMax
	mb[mp] = idxVal{idx: end, v: curMax}
	nb[np] = mb[mp]
	for j := end - 1; j >= max(end-s.w+1, a0); j-- {
		v := a[j-a0]
		if v > curMax {
			mp--
			mb[mp] = idxVal{idx: j, v: v}
			curMax = v
		}
		if v < curMin {
			np--
			nb[np] = idxVal{idx: j, v: v}
			curMin = v
		}
	}
	s.maxD.head, s.maxD.n = mp, len(mb)-mp
	s.minD.head, s.minD.n = np, len(nb)-np
}

// trim discards oscillations for centers below minCenter, bounding the
// tracker's memory. The copy-down reuses the slice's capacity, so after
// the first few trims push/trim cycles allocate nothing.
func (s *slidingExtrema) trim(minCenter int) {
	drop := minCenter - s.oscBase
	if drop <= 0 {
		return
	}
	if drop > len(s.osc) {
		drop = len(s.osc)
	}
	s.osc = append(s.osc[:0], s.osc[drop:]...)
	s.oscBase += drop
}

// ExtremaState is the persistable state of one radius tracker. The field
// layout matches the pre-stream `aging` tracker snapshot so legacy gob
// blobs map onto it directly.
type ExtremaState struct {
	R       int
	MaxIdx  []int
	MaxVal  []float64
	MinIdx  []int
	MinVal  []float64
	Osc     []float64
	OscBase int
}

// state snapshots the tracker.
func (s *slidingExtrema) state() ExtremaState {
	st := ExtremaState{
		R:       s.r,
		Osc:     append([]float64(nil), s.osc...),
		OscBase: s.oscBase,
	}
	for i := 0; i < s.maxD.n; i++ {
		e := s.maxD.buf[(s.maxD.head+i)%len(s.maxD.buf)]
		st.MaxIdx = append(st.MaxIdx, e.idx)
		st.MaxVal = append(st.MaxVal, e.v)
	}
	for i := 0; i < s.minD.n; i++ {
		e := s.minD.buf[(s.minD.head+i)%len(s.minD.buf)]
		st.MinIdx = append(st.MinIdx, e.idx)
		st.MinVal = append(st.MinVal, e.v)
	}
	return st
}

// restoreExtrema rebuilds a tracker from a snapshot.
func restoreExtrema(st ExtremaState) (*slidingExtrema, error) {
	if st.R < 1 || len(st.MaxIdx) != len(st.MaxVal) || len(st.MinIdx) != len(st.MinVal) {
		return nil, ErrBadState
	}
	s := newSlidingExtrema(st.R)
	if len(st.MaxIdx) > s.w || len(st.MinIdx) > s.w {
		return nil, ErrBadState
	}
	for i := range st.MaxIdx {
		s.maxD.pushBack(idxVal{idx: st.MaxIdx[i], v: st.MaxVal[i]})
	}
	for i := range st.MinIdx {
		s.minD.pushBack(idxVal{idx: st.MinIdx[i], v: st.MinVal[i]})
	}
	s.osc = append(s.osc, st.Osc...)
	s.oscBase = st.OscBase
	return s, nil
}
