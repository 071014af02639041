package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// maxWrite bounds one write: units are written back to back, as many
// whole units per call as fit.
const maxWrite = 64 << 10

// sendConns runs send once per connection, each on its own goroutine,
// and returns once every call has returned.
func sendConns(conns []net.Conn, send func(c int, conn net.Conn) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = send(c, conns[c])
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return fmt.Errorf("connection %d: %w", c, err)
		}
	}
	return nil
}

// sendUnits writes the units (consecutive in stream) in order, each
// write as soon as the previous one returns: the closed loop.
func sendUnits(conn io.Writer, stream []byte, units []unit, ids []int32) error {
	for i := 0; i < len(ids); {
		first := &units[ids[i]]
		j := i + 1
		for j < len(ids) && units[ids[j]].end-first.off <= maxWrite {
			j++
		}
		if _, err := conn.Write(stream[first.off:units[ids[j-1]].end]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// pacer is the open-loop schedule of one connection: position k of its
// send sequence is unit ids[k%len(ids)] (the sequence repeats the
// connection's round). Positions come due in bursts of burst, one burst
// every burst*interval, the first at offset after the phase epoch. The
// connections' offsets spread their schedules over that gap, so that
// they do not send in step.
type pacer struct {
	stream   []byte
	units    []unit
	ids      []int32
	interval time.Duration
	offset   time.Duration
	burst    int
}

func (p *pacer) due(k int) time.Duration {
	return p.offset + time.Duration(k/p.burst*p.burst)*p.interval
}

// send writes positions [0, n) of the sequence, each no earlier than its
// due time: every write carries the units already due when it starts
// (at most maxWrite bytes, never across a round boundary). late[k]
// receives position k's lateness in ms, its write start minus its due
// time. from[k] receives the time, in ns after epoch, that its latency
// counts from: its due time plus the generator's own delay, the part of
// its lateness not spent waiting for the previous write to return. A
// unit held back by a write that blocked on the daemon keeps that wait
// in its latency; a late timer wake-up of the generator does not.
func (p *pacer) send(conn io.Writer, epoch time.Time, n int, late []float64, from []int64) error {
	per := len(p.ids)
	var ret time.Duration // when the previous write returned
	for k := 0; k < n; {
		now := time.Since(epoch)
		if d := p.due(k); d > now {
			time.Sleep(d - now)
			continue
		}
		first := &p.units[p.ids[k%per]]
		j := k + 1
		for j < n && j%per != 0 && p.due(j) <= now && p.units[p.ids[j%per]].end-first.off <= maxWrite {
			j++
		}
		for i := k; i < j; i++ {
			due := p.due(i)
			late[i] = float64(now-due) / 1e6
			from[i] = int64(due + now - max(due, ret))
		}
		if _, err := conn.Write(p.stream[first.off:p.units[p.ids[(j-1)%per]].end]); err != nil {
			return err
		}
		ret = time.Since(epoch)
		k = j
	}
	return nil
}
