package main

import (
	"fmt"
	"math"

	"agingmf/internal/ingest"
	"agingmf/internal/source"
)

// unit is one wire unit: a text line or a binary frame carrying n
// consecutive samples of one source, starting at trace sample first.
type unit struct {
	src   int32
	conn  int32
	first int32
	n     int32
	// off and end delimit the unit's bytes in its connection's stream.
	off, end int32
}

// wirePlan is every byte a run sends, encoded before the clock starts.
type wirePlan struct {
	ids     []string
	traces  []trace
	base    int // trace samples before the first wire unit (the warm lead)
	cycle   int // wire samples per source per round
	frame   int // samples per unit
	burst   int // consecutive units of one source in a connection's stream
	units   []unit
	streams [][]byte  // per connection
	byConn  [][]int32 // per connection: unit ids in send order
	bySrc   [][]int32 // per source: unit ids in sample order
}

// planConfig shapes a wire plan.
type planConfig struct {
	text   bool
	frame  int
	conns  int
	cycle  int // samples per source per round, a multiple of frame
	burst  int // units each source sends back to back (0 = 1)
	base   int
	prefix string
}

// buildPlan encodes every source's samples [base, base+cycle) into
// units spread over the connections (source s rides connection
// s % conns), each connection interleaving its sources burst by burst.
func buildPlan(cfg planConfig, traces []trace) (*wirePlan, error) {
	cfg.burst = max(cfg.burst, 1)
	if cfg.frame < 1 || cfg.cycle < cfg.frame || cfg.cycle%(cfg.frame*cfg.burst) != 0 {
		return nil, fmt.Errorf("plan: cycle %d is not a positive multiple of frame %d × burst %d", cfg.cycle, cfg.frame, cfg.burst)
	}
	nsrc := len(traces)
	pl := &wirePlan{
		ids: make([]string, nsrc), traces: traces, base: cfg.base, cycle: cfg.cycle, frame: cfg.frame, burst: cfg.burst,
		streams: make([][]byte, cfg.conns), byConn: make([][]int32, cfg.conns), bySrc: make([][]int32, nsrc),
	}
	for s := range pl.ids {
		pl.ids[s] = fmt.Sprintf("%s-%04d", cfg.prefix, s)
	}
	per := cfg.cycle / cfg.frame
	for s := 0; s < nsrc; s++ {
		for j := 0; j < per; j++ {
			u := unit{src: int32(s), conn: int32(s % cfg.conns), first: int32(cfg.base + j*cfg.frame), n: int32(cfg.frame)}
			pl.bySrc[s] = append(pl.bySrc[s], int32(len(pl.units)))
			pl.units = append(pl.units, u)
		}
	}
	for j := 0; j < per; j += cfg.burst {
		for s := 0; s < nsrc; s++ {
			for _, id := range pl.bySrc[s][j : j+cfg.burst] {
				c := pl.units[id].conn
				pl.byConn[c] = append(pl.byConn[c], id)
			}
		}
	}
	cb := source.AcquireColumnarBatch()
	defer cb.Release()
	for c, ids := range pl.byConn {
		var buf []byte
		for _, id := range ids {
			u := &pl.units[id]
			u.off = int32(len(buf))
			tr := traces[u.src]
			if cfg.text {
				for k := int(u.first); k < int(u.first+u.n); k++ {
					f, sw := tr.at(k)
					buf = append(buf, ingest.FormatLine(ingest.Sample{Source: pl.ids[u.src], Free: f, Swap: sw})...)
					buf = append(buf, '\n')
				}
			} else {
				cb.Reset()
				cb.Source = pl.ids[u.src]
				for k := int(u.first); k < int(u.first+u.n); k++ {
					f, sw := tr.at(k)
					cb.Free = append(cb.Free, f)
					cb.Swap = append(cb.Swap, sw)
				}
				var err error
				if buf, err = source.AppendFrame(buf, cb); err != nil {
					return nil, fmt.Errorf("plan: encode %s: %w", pl.ids[u.src], err)
				}
			}
			u.end = int32(len(buf))
		}
		if len(buf) > math.MaxInt32 {
			return nil, fmt.Errorf("plan: connection %d stream of %d bytes is too large", c, len(buf))
		}
		pl.streams[c] = buf
	}
	return pl, nil
}

// wireBytes is the total encoded size of one round.
func (pl *wirePlan) wireBytes() int {
	n := 0
	for _, b := range pl.streams {
		n += len(b)
	}
	return n
}

// unitOf maps sample k of source s to the round and the unit that
// carried it; ok is false for a sample no unit carried (the warm lead).
func (pl *wirePlan) unitOf(s, k int) (round int, id int32, ok bool) {
	if s < 0 || s >= len(pl.bySrc) || k < pl.base {
		return 0, 0, false
	}
	t := k - pl.base
	round = t / pl.cycle
	return round, pl.bySrc[s][(t%pl.cycle)/pl.frame], true
}
