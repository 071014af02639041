package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer's epoch, the index of the span that
// caused it (-1 for a root) and the wire unit it served.
type span struct {
	name       string
	start, end int64
	parent     int32
	unit       int32
}

// tracer keeps spans in memory; they are written out once at the end.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, unit int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, unit: unit})
	i := len(t.spans) - 1
	t.spans[i].start = time.Since(t.epoch).Nanoseconds()
	return int32(i)
}

// end closes span i.
func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.epoch).Nanoseconds() }

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.name] += s.end - s.start - covered(spans, s, children[int32(i)])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(spans []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < parent.start {
			a = parent.start
		}
		if b > parent.end {
			b = parent.end
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// writeSpans writes the spans as gzip-compressed CSV: id, name,
// start_ns, end_ns, parent, unit.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,unit")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.name, s.start, s.end, s.parent, s.unit)
	}
	err = w.Flush()
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
