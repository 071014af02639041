package ingest

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"agingmf/internal/detect"
	transport "agingmf/internal/source"
)

// BinarySelfTestConfig parameterizes RunBinarySelfTest.
type BinarySelfTestConfig struct {
	// Sources is the number of simulated machines (0 selects 4).
	Sources int
	// Samples is the trace length per machine (0 selects 1<<21).
	Samples int
	// FrameSamples is the number of samples packed into each binary wire
	// frame (0 selects 4096); frames must fit the server's MaxLineBytes bound.
	FrameSamples int
	// Conns is the number of TCP connections the sources are multiplexed
	// over (0 selects min(Sources, 8)).
	Conns int
	// Seed offsets every machine's trace deterministically.
	Seed int64
	// Timeout bounds the whole self-test (0 selects 2m).
	Timeout time.Duration
}

func (c BinarySelfTestConfig) withDefaults() BinarySelfTestConfig {
	if c.Sources <= 0 {
		c.Sources = 4
	}
	if c.Samples <= 0 {
		c.Samples = 1 << 21
	}
	if c.FrameSamples <= 0 {
		c.FrameSamples = 4096
	}
	if c.Conns <= 0 {
		c.Conns = c.Sources
		if c.Conns > 8 {
			c.Conns = 8
		}
	}
	if c.Conns > c.Sources {
		c.Conns = c.Sources
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	return c
}

// BinarySelfTestReport is the outcome of one binary-wire self-test.
type BinarySelfTestReport struct {
	// Sources, SamplesSent and FramesSent describe the generated load.
	Sources     int
	SamplesSent int
	FramesSent  int
	// Accepted, Dropped and BadFrames are the registry's accounting after
	// the load; a passing run has Accepted == SamplesSent and the other
	// two zero.
	Accepted  uint64
	Dropped   uint64
	BadFrames uint64
	// ParityMismatches lists sources whose daemon-side detector state
	// differs from a single-process per-sample reference fed the same
	// trace ("id" or "id/detector") — the end-to-end assertion that the
	// columnar kernels are verdict-identical to the per-sample path.
	ParityMismatches []string
	// Alerts is the fleet-wide alert count after the load.
	Alerts uint64
	// LoadElapsed is the wire phase only: first byte written to last
	// sample folded into its monitor. SamplesPerSec = SamplesSent over
	// that window.
	LoadElapsed   time.Duration
	SamplesPerSec float64
	// Elapsed is the wall time including encode and verify phases.
	Elapsed time.Duration
}

// Ok reports whether the self-test passed: every sample accepted through
// the binary path, nothing dropped, no frame rejected, and every
// source's monitor byte-for-byte identical to its per-sample reference.
func (r BinarySelfTestReport) Ok() bool {
	return r.Accepted == uint64(r.SamplesSent) && r.Dropped == 0 &&
		r.BadFrames == 0 && len(r.ParityMismatches) == 0
}

// binarySelfTestSourceID names simulated machine i on the wire.
func binarySelfTestSourceID(i int) string { return fmt.Sprintf("selftest-bin-%04d", i) }

// binarySelfTestPair returns sample i of machine s: a quantized linear
// memory leak (free drains one unit per tick from a seed-dependent base,
// the canonical aging trace) with a slow swap ramp. Every value is an
// integer well inside float32's exact range, so frames stay narrow on
// the wire, and the window extrema repeat from sample to sample, so the
// batch kernels' regression memo hits — this is the trace shape the
// columnar path is built to sustain, at full precision.
func binarySelfTestPair(seed int64, s, i int) (free, swap float64) {
	base := 16_000_000 - int(uint64(seed)*2654435761%4096) - s*8191
	free = float64(base - i%8_000_000)
	swap = float64((i + s*131) & 0xFFFFF)
	return free, swap
}

// RunBinarySelfTest drives deterministic high-rate traces through the
// server's real TCP socket as binary columnar frames and verifies the
// daemon end-to-end: every frame accepted whole (no drops, no rejects)
// and every source's detector-set state byte-for-byte identical to a
// single-process per-sample reference fed the same values — the full
// wire → decode → shard → batch-kernel chain proven against the row
// path. The wire streams are encoded before the clock starts, so
// SamplesPerSec measures the daemon's ingest throughput, not the
// generator's.
//
// The server must be started with a TCP listener and must not be shut
// down underneath the test. Pipeline tracing annotates a sampled frame
// sample by sample, and a flight recorder each frame's recorded tail;
// run the throughput self-test with both disabled.
func RunBinarySelfTest(ctx context.Context, srv *Server, cfg BinarySelfTestConfig) (BinarySelfTestReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	addr := srv.TCPAddr()
	if addr == nil {
		return BinarySelfTestReport{}, fmt.Errorf("ingest: binary self-test needs a TCP listener")
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	start := time.Now()

	rep := BinarySelfTestReport{
		Sources:     cfg.Sources,
		SamplesSent: cfg.Sources * cfg.Samples,
	}

	// Encode phase (untimed): render each connection's whole frame stream
	// into memory. Sources are spread round-robin over the connections and
	// interleaved frame by frame within each.
	streams := make([][]byte, cfg.Conns)
	cb := transport.AcquireColumnarBatch()
	defer cb.Release()
	for c := range streams {
		var mine []int
		for s := c; s < cfg.Sources; s += cfg.Conns {
			mine = append(mine, s)
		}
		var buf []byte
		for off := 0; off < cfg.Samples; off += cfg.FrameSamples {
			end := off + cfg.FrameSamples
			if end > cfg.Samples {
				end = cfg.Samples
			}
			for _, s := range mine {
				cb.Reset()
				cb.Source = binarySelfTestSourceID(s)
				for i := off; i < end; i++ {
					free, swap := binarySelfTestPair(cfg.Seed, s, i)
					cb.Free = append(cb.Free, free)
					cb.Swap = append(cb.Swap, swap)
				}
				var err error
				if buf, err = transport.AppendFrame(buf, cb); err != nil {
					return rep, fmt.Errorf("ingest: binary self-test encode: %w", err)
				}
				rep.FramesSent++
			}
		}
		streams[c] = buf
	}

	reg := srv.Registry()
	baseAccepted := reg.Accepted()
	baseBad := reg.BadFrames()
	baseDropped := reg.Dropped()

	// Load phase (timed): stream every connection's bytes and wait for the
	// shards to fold the last sample into its monitor.
	loadStart := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, cfg.Conns)
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var d net.Dialer
			conn, err := d.DialContext(ctx, addr.Network(), addr.String())
			if err != nil {
				errc <- fmt.Errorf("ingest: binary self-test dial: %w", err)
				return
			}
			defer conn.Close()
			if _, err := conn.Write(streams[c]); err != nil {
				errc <- fmt.Errorf("ingest: binary self-test write: %w", err)
				return
			}
			errc <- nil
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return rep, err
		}
	}
	for reg.Accepted()-baseAccepted < uint64(rep.SamplesSent) {
		if ctx.Err() != nil || reg.BadFrames() > baseBad || reg.Dropped() > baseDropped {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rep.LoadElapsed = time.Since(loadStart)
	rep.Accepted = reg.Accepted() - baseAccepted
	rep.Dropped = reg.Dropped() - baseDropped
	rep.BadFrames = reg.BadFrames() - baseBad
	rep.Alerts = reg.Alerts().Total()
	if sec := rep.LoadElapsed.Seconds(); sec > 0 {
		rep.SamplesPerSec = float64(rep.Accepted) / sec
	}

	// Verify phase: replay each trace sample-by-sample into a fresh
	// detector set — the row-path reference the columnar chain must match
	// byte-for-byte.
	for s := 0; s < cfg.Sources; s++ {
		id := binarySelfTestSourceID(s)
		got, err := reg.MonitorState(id)
		if err != nil {
			rep.ParityMismatches = append(rep.ParityMismatches, id)
			continue
		}
		ref, err := detect.New(reg.Config().Detectors, reg.Config().DetectorConfig())
		if err != nil {
			return rep, fmt.Errorf("ingest: binary self-test reference detectors: %w", err)
		}
		for i := 0; i < cfg.Samples; i++ {
			free, swap := binarySelfTestPair(cfg.Seed, s, i)
			ref.Add(free, swap)
		}
		want, err := ref.SaveState()
		if err != nil {
			return rep, fmt.Errorf("ingest: binary self-test reference state: %w", err)
		}
		if !bytes.Equal(got, want) {
			rep.ParityMismatches = append(rep.ParityMismatches, detectorMismatches(id, got, want)...)
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
