package trace

import "sync"

// Record is one annotated sample retained by a flight recorder: the raw
// pair, the detector's view of it, and (for traced units) the per-stage
// timings. It is the post-hoc unit of `GET /api/trace/{source}` — enough
// to reconstruct what the pipeline saw and concluded in the moments
// before a crash or alert.
type Record struct {
	// Seq is the per-source sample index (1-based; equals the monitor's
	// SamplesSeen after this sample).
	Seq uint64 `json:"seq"`
	// Wall is when the shard committed the sample (UnixNano).
	Wall int64 `json:"wall_ns"`
	// Free and Swap are the raw counter pair.
	Free float64 `json:"free"`
	Swap float64 `json:"swap"`
	// ScoreFree and ScoreSwap are the detector-input statistics of the
	// two streams after this sample (0 until the baseline calibrates).
	ScoreFree float64 `json:"score_free"`
	ScoreSwap float64 `json:"score_swap"`
	// Phase is the monitor's phase after this sample.
	Phase string `json:"phase"`
	// Jumps counts the volatility jumps this sample fired (the verdict).
	Jumps int `json:"jumps"`
	// TraceSeq links the sample to its tracer spans when its unit was
	// sampled (0 otherwise).
	TraceSeq uint64 `json:"trace_seq"`
	// StageNs holds the traced unit's per-stage nanoseconds, indexed by
	// Stage; all zero for untraced units.
	StageNs [NumStages]int64 `json:"stage_ns"`
}

// FlightRecorder is a fixed-size ring of the most recent Records of one
// source. The disabled form is the nil *FlightRecorder (returned by
// NewFlightRecorder for a non-positive depth); every method is
// nil-receiver safe, so pipelines wire it unconditionally. Writers batch
// through Append (one lock per item/batch); Snapshot is safe from any
// goroutine.
type FlightRecorder struct {
	mu     sync.Mutex
	ring   []Record
	next   int
	filled bool
}

// NewFlightRecorder builds a recorder retaining the last depth records,
// or nil (the disabled form) for depth <= 0.
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		return nil
	}
	return &FlightRecorder{ring: make([]Record, depth)}
}

// Depth returns the ring capacity (0 when disabled).
func (f *FlightRecorder) Depth() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Append records a run of samples, oldest first, under one lock.
func (f *FlightRecorder) Append(recs []Record) {
	if f == nil || len(recs) == 0 {
		return
	}
	f.mu.Lock()
	for _, r := range recs {
		f.ring[f.next] = r
		f.next++
		if f.next == len(f.ring) {
			f.next, f.filled = 0, true
		}
	}
	f.mu.Unlock()
}

// Push records one sample.
func (f *FlightRecorder) Push(r Record) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = r
	f.next++
	if f.next == len(f.ring) {
		f.next, f.filled = 0, true
	}
	f.mu.Unlock()
}

// Len returns how many records are currently retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.filled {
		return len(f.ring)
	}
	return f.next
}

// Snapshot returns the retained records, oldest first (copy; nil
// recorder returns nil).
func (f *FlightRecorder) Snapshot() []Record {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.filled {
		return append([]Record(nil), f.ring[:f.next]...)
	}
	out := make([]Record, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	return append(out, f.ring[:f.next]...)
}
