package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/cluster"
	"agingmf/internal/detect"
	"agingmf/internal/ingest"
	"agingmf/internal/obs"
)

// daemonMonitor is agingd's per-source monitor configuration: the
// experiment defaults bounded by the -history-limit default.
func daemonMonitor() aging.Config {
	cfg := aging.DefaultConfig()
	cfg.HistoryLimit = 4096
	return cfg
}

// detectConfig is the detector-suite configuration the daemon builds
// every source from (and the oracle rebuilds it from).
func detectConfig() detect.Config {
	return ingest.Config{Monitor: daemonMonitor(), Detect: detectSuite()}.DetectorConfig()
}

// detectSuite bounds the adaptive detector's history as -history-limit
// bounds the holder's. agingd passes the limit only to Monitor; the
// adaptive defaults carry a monitor configuration of their own, which
// keeps every sample, so each source grows by tens of bytes per sample
// and a 40-second suite-binary run would hold gigabytes. The traced run
// measures that growth with agingd's own configuration
// (adaptiveGrowth).
func detectSuite() detect.Config {
	ad := detect.DefaultAdaptiveConfig()
	ad.Monitor = daemonMonitor()
	return detect.Config{Adaptive: ad}
}

// registryConfig is agingd's registry configuration at its flag
// defaults (8 shards, queue 1024, 65536 sources, metrics on), with the
// workload's detector suite and flight-recorder depth, and the adaptive
// detector's history bounded (detectSuite).
func registryConfig(w *workload) ingest.Config {
	return ingest.Config{
		Shards:              8,
		QueueSize:           1024,
		Monitor:             daemonMonitor(),
		Detect:              detectSuite(),
		Detectors:           w.detectors,
		MaxSources:          65536,
		Obs:                 obs.NewRegistry(),
		FlightRecorderDepth: w.recorder,
	}
}

// fleet is the daemon under test: one ingest.Server, or a cluster of
// servers each wrapped by a cluster.Node, wired as agingd -cluster-addr
// wires them (the node's handler on the server's HTTP mux, the server
// routing every unit through the node), except that nodes have fixed
// names (see namedTransport). Producers connect to the entry server,
// srvs[0].
type fleet struct {
	srvs  []*ingest.Server
	nodes []*cluster.Node
	https []*http.Server // the nodes' cluster listeners
	wg    sync.WaitGroup // the https' serve loops
}

// startFleet builds and starts the daemon(s) and returns once the entry
// listener accepts (and, clustered, every node sees the full ring).
// snapshot names the state file the entry server restores from.
func startFleet(w *workload, snapshot string) (*fleet, error) {
	f := &fleet{}
	if w.nodes == 0 {
		srv, err := ingest.NewServer(ingest.ServerConfig{
			Registry:     registryConfig(w),
			TCPAddr:      "127.0.0.1:0",
			MaxBadLines:  100,
			SnapshotPath: snapshot,
		})
		if err != nil {
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		if err := srv.Start(); err != nil {
			f.close()
			return nil, err
		}
		return f, f.accepts()
	}
	// Each node serves the cluster protocol on a listener bound here, so
	// its address is known before the node exists.
	lns := make([]net.Listener, w.nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
	}
	tr := &namedTransport{addrs: make(map[string]string, w.nodes)}
	for i, ln := range lns {
		tr.addrs[nodeName(i)] = ln.Addr().String()
	}
	for i, ln := range lns {
		srv, err := ingest.NewServer(ingest.ServerConfig{
			Registry:    registryConfig(w),
			TCPAddr:     "127.0.0.1:0",
			MaxBadLines: 100,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		var peers []string
		for j := range lns {
			if j != i {
				peers = append(peers, nodeName(j))
			}
		}
		node, err := cluster.NewNode(cluster.Config{
			Self:           nodeName(i),
			Peers:          peers,
			Transport:      tr,
			Registry:       srv.Registry(),
			HeartbeatEvery: time.Second,
			Obs:            srv.Registry().Config().Obs,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		srv.SetLineRouter(node)
		h := node.Handler()
		srv.Mount("/cluster/", h)
		srv.Mount("/api/cluster", h)
		hs := &http.Server{Handler: srv.Handler()}
		f.srvs = append(f.srvs, srv)
		f.nodes = append(f.nodes, node)
		f.https = append(f.https, hs)
		f.wg.Add(1)
		go func(ln net.Listener) {
			defer f.wg.Done()
			_ = hs.Serve(ln)
		}(ln)
	}
	for _, srv := range f.srvs {
		if err := srv.Start(); err != nil {
			f.close()
			return nil, err
		}
	}
	for _, n := range f.nodes {
		n.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range f.nodes {
		for n.Ring().Size() < w.nodes {
			if time.Now().After(deadline) {
				f.close()
				return nil, fmt.Errorf("cluster ring did not converge: %s sees %d members", n.Name(), n.Ring().Size())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return f, f.accepts()
}

func nodeName(i int) string { return fmt.Sprintf("node-%d", i) }

// namedTransport is HTTPTransport between nodes with fixed names. The
// ring hashes node names: named by address, as agingd names them, the
// owner of each source, and so the forwarded share, would change with
// the ports the listeners got from one run to the next.
type namedTransport struct {
	http  cluster.HTTPTransport
	addrs map[string]string // node name -> listener address
}

func (t *namedTransport) Ping(ctx context.Context, peer string) error {
	return t.http.Ping(ctx, t.addrs[peer])
}

func (t *namedTransport) Forward(ctx context.Context, peer, defaultSource, line string, hops int) error {
	return t.http.Forward(ctx, t.addrs[peer], defaultSource, line, hops)
}

func (t *namedTransport) Handoff(ctx context.Context, peer string, envelope []byte) error {
	return t.http.Handoff(ctx, t.addrs[peer], envelope)
}

func (t *namedTransport) Locate(ctx context.Context, peer, source string) (bool, error) {
	return t.http.Locate(ctx, t.addrs[peer], source)
}

func (t *namedTransport) Announce(ctx context.Context, peer, from, kind string) error {
	return t.http.Announce(ctx, t.addrs[peer], from, kind)
}

// accepts dials the entry listener once.
func (f *fleet) accepts() error {
	c, err := net.Dial("tcp", f.srvs[0].TCPAddr().String())
	if err != nil {
		f.close()
		return fmt.Errorf("entry listener does not accept: %w", err)
	}
	return c.Close()
}

func (f *fleet) regs() []*ingest.Registry {
	out := make([]*ingest.Registry, len(f.srvs))
	for i, s := range f.srvs {
		out[i] = s.Registry()
	}
	return out
}

// counts sums the registries' accounting.
func (f *fleet) counts() (accepted, dropped, rejected uint64) {
	for _, r := range f.regs() {
		accepted += r.Accepted()
		dropped += r.Dropped()
		rejected += r.BadFrames() + r.BadLines()
	}
	return
}

// alertsPublished sums the buses' publish counts.
func (f *fleet) alertsPublished() uint64 {
	var n uint64
	for _, r := range f.regs() {
		n += r.Alerts().Total()
	}
	return n
}

// drain waits until every queued unit has been folded and its alerts
// published.
func (f *fleet) drain() error {
	for _, r := range f.regs() {
		if err := r.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// holder returns the registry holding source id.
func (f *fleet) holder(id string) (*ingest.Registry, bool) {
	for _, r := range f.regs() {
		if _, ok := r.Source(id); ok {
			return r, true
		}
	}
	return nil, false
}

// close stops the nodes and shuts every server down.
func (f *fleet) close() error {
	for _, n := range f.nodes {
		n.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, s := range f.srvs {
		errs = append(errs, s.Shutdown(ctx))
	}
	for _, h := range f.https {
		errs = append(errs, h.Shutdown(ctx))
	}
	f.wg.Wait()
	return errors.Join(errs...)
}
