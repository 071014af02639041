package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"agingmf/internal/control"
	"agingmf/internal/ingest"
	"agingmf/internal/obs"
	"agingmf/internal/resilience"
	transport "agingmf/internal/source"
	"agingmf/internal/trace"
)

// Cluster errors.
var (
	// ErrClosed reports a node that has been halted or left the cluster.
	ErrClosed = errors.New("cluster: node closed")
	// ErrLeaving reports a handoff refused because the receiving node has
	// begun leaving the cluster and will not take on new sources.
	ErrLeaving = errors.New("cluster: node leaving")
	// ErrNoOwner reports a line that could not be routed: the ring is
	// empty or every candidate owner was unreachable within the hop and
	// retry budgets.
	ErrNoOwner = errors.New("cluster: no reachable owner")
	// ErrNotHeld reports a Migrate that moved nothing: this node does not
	// hold the source, or a migration of it is already in flight.
	// Rebalancing treats it as a skip.
	ErrNotHeld = errors.New("cluster: source not held here")
)

// Config parameterizes a Node.
type Config struct {
	// Self is this node's name — with HTTPTransport, the host:port peers
	// reach its HTTP listener at. Required.
	Self string
	// Peers are the other members of the static membership (their
	// transport names). More can join at runtime via announce.
	Peers []string
	// Replicas is the virtual-node count per member (0 selects
	// DefaultReplicas).
	Replicas int
	// Transport moves cluster traffic. Required.
	Transport Transport
	// Registry is this node's local monitor registry. Required.
	Registry *ingest.Registry
	// HeartbeatEvery is the peer-probe cadence (0 disables the loop —
	// health then changes only via announces, which the in-process
	// harnesses sometimes want for determinism).
	HeartbeatEvery time.Duration
	// HeartbeatMiss is how many consecutive failed probes mark a peer
	// down (0 selects 3).
	HeartbeatMiss int
	// Store is the shared last-snapshot shelf for dead-node adoption
	// (nil: adopted sources start fresh).
	Store StateStore
	// MaxHops bounds forwarding chains (0 selects 4).
	MaxHops int
	// Retry shapes handoff and forward retries (zero value: resilience
	// defaults).
	Retry resilience.RetryConfig
	// BlockTimeout bounds how long a line for a source in outbound
	// migration waits for the release (0 selects 30s).
	BlockTimeout time.Duration
	// Obs receives the agingmf_cluster_* metric families (nil disables).
	Obs *obs.Registry
	// Events receives cluster lifecycle events (nil disables).
	Events *obs.Events
	// Tracer records one migrate span per completed handoff (nil
	// disables).
	Tracer *trace.Tracer
}

// withDefaults resolves the zero-value conveniences.
func (c Config) withDefaults() Config {
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 3
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 4
	}
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = 30 * time.Second
	}
	return c
}

// migration is one in-flight outbound handoff. Lines for the source
// block on done (the release) instead of being buffered — buffering
// could reorder them against lines that reach the new owner directly,
// and per-source order is what keeps verdicts byte-identical.
type migration struct {
	target string
	done   chan struct{}
}

// Node is one cluster member wrapping a local ingest.Registry. All
// exported methods are safe for concurrent use.
type Node struct {
	cfg Config
	reg *ingest.Registry
	met metrics

	mu        sync.RWMutex
	ring      *Ring
	peers     map[string]bool // known peer -> alive
	misses    map[string]int
	migrating map[string]*migration
	redirects map[string]string // source -> holder (cleared on ring change)

	stopc     chan struct{}
	stopOnce  sync.Once
	closed    atomic.Bool
	leaving   atomic.Bool
	hbWg      sync.WaitGroup
	rebalMu   sync.Mutex // serializes rebalance passes
	rebalWant atomic.Bool

	migrations   atomic.Uint64
	ownerChanges atomic.Uint64
	forwards     atomic.Uint64
	adoptRestore atomic.Uint64
	adoptFresh   atomic.Uint64
	handoffFails atomic.Uint64
	migSeq       atomic.Uint64
}

// NewNode builds a node. The ring initially contains only members that
// answer a probe (plus self); Start launches the heartbeat loop and
// announces the join.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("cluster: Config.Transport required")
	}
	if cfg.Registry == nil {
		return nil, errors.New("cluster: Config.Registry required")
	}
	n := &Node{
		cfg:       cfg,
		reg:       cfg.Registry,
		met:       newMetrics(cfg.Obs),
		peers:     make(map[string]bool, len(cfg.Peers)),
		misses:    make(map[string]int),
		migrating: make(map[string]*migration),
		redirects: make(map[string]string),
		stopc:     make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p != "" && p != cfg.Self {
			n.peers[p] = false
		}
	}
	n.rebuildRingLocked()
	return n, nil
}

// Name returns the node's transport name.
func (n *Node) Name() string { return n.cfg.Self }

// Registry returns the node's local monitor registry.
func (n *Node) Registry() *ingest.Registry { return n.reg }

// ctx tags a fresh context with this node as the caller (MemTransport
// partitions key off it).
func (n *Node) ctx() context.Context {
	return withCaller(context.Background(), n.cfg.Self)
}

// Start probes the configured peers once (so the initial ring reflects
// who is actually up), announces the join, and launches the heartbeat
// loop. Call Stop, Leave or Halt to end it.
func (n *Node) Start() {
	ctx, cancel := context.WithTimeout(n.ctx(), 5*time.Second)
	defer cancel()
	for p := range n.snapshotPeers() {
		if err := n.cfg.Transport.Ping(ctx, p); err == nil {
			n.markUp(p)
			_ = n.cfg.Transport.Announce(ctx, p, n.cfg.Self, AnnounceJoin)
		}
	}
	if n.cfg.HeartbeatEvery > 0 {
		n.hbWg.Add(1)
		go n.heartbeatLoop()
	}
}

// snapshotPeers copies the known peer set.
func (n *Node) snapshotPeers() map[string]bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[string]bool, len(n.peers))
	for p, up := range n.peers {
		out[p] = up
	}
	return out
}

// heartbeatLoop probes every known peer each cadence and flips ring
// membership on state changes.
func (n *Node) heartbeatLoop() {
	defer n.hbWg.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stopc:
			return
		case <-t.C:
		}
		for p, wasUp := range n.snapshotPeers() {
			ctx, cancel := context.WithTimeout(n.ctx(), n.cfg.HeartbeatEvery)
			err := n.cfg.Transport.Ping(ctx, p)
			cancel()
			if err == nil {
				n.met.heartbeats.With("ok").Inc()
				n.mu.Lock()
				n.misses[p] = 0
				n.mu.Unlock()
				if !wasUp {
					n.markUp(p)
				}
				continue
			}
			n.met.heartbeats.With("miss").Inc()
			n.mu.Lock()
			n.misses[p]++
			down := wasUp && n.misses[p] >= n.cfg.HeartbeatMiss
			n.mu.Unlock()
			if down {
				n.markDown(p)
			}
		}
	}
}

// publish posts a membership alert on the registry's control bus, so
// fleet subscribers (the JSONL/webhook sinks, the Rejuvenator) see
// topology changes on the same stream as detector verdicts.
func (n *Node) publish(a control.Alert) {
	n.reg.Alerts().Publish(a)
}

// markUp adds peer to the ring (idempotent) and triggers a rebalance.
func (n *Node) markUp(peer string) {
	n.mu.Lock()
	if up, known := n.peers[peer]; known && up {
		n.mu.Unlock()
		return
	}
	n.peers[peer] = true
	n.misses[peer] = 0
	n.rebuildRingLocked()
	n.mu.Unlock()
	n.cfg.Events.Info("cluster_peer_up", obs.Fields{"node": n.cfg.Self, "peer": peer})
	n.publish(control.Alert{Source: peer, Kind: control.KindNodeUp, Node: n.cfg.Self})
	n.triggerRebalance()
}

// markDown removes peer from the ring and triggers a rebalance (usually
// a no-op for survivors: the dead node's sources are adopted lazily on
// their next line).
func (n *Node) markDown(peer string) {
	n.mu.Lock()
	if up, known := n.peers[peer]; !known || !up {
		n.mu.Unlock()
		return
	}
	n.peers[peer] = false
	n.rebuildRingLocked()
	n.mu.Unlock()
	n.cfg.Events.Warn("cluster_peer_down", obs.Fields{"node": n.cfg.Self, "peer": peer})
	n.publish(control.Alert{Source: peer, Kind: control.KindNodeDown, Node: n.cfg.Self})
	n.triggerRebalance()
}

// HandleAnnounce processes a membership announce from a peer.
func (n *Node) HandleAnnounce(from, kind string) {
	if from == "" || from == n.cfg.Self {
		return
	}
	switch kind {
	case AnnounceJoin:
		n.mu.Lock()
		if _, known := n.peers[from]; !known {
			n.peers[from] = false
		}
		n.mu.Unlock()
		n.markUp(from)
	case AnnounceLeave:
		n.markDown(from)
	}
}

// rebuildRingLocked rebuilds the routing ring from self plus the alive
// peers and invalidates the redirect cache (holders may be about to
// move). Callers hold n.mu.
func (n *Node) rebuildRingLocked() {
	members := []string{n.cfg.Self}
	up := 0
	for p, alive := range n.peers {
		if alive {
			members = append(members, p)
			up++
		}
	}
	n.ring = NewRing(n.cfg.Replicas, members)
	n.redirects = make(map[string]string)
	n.met.peersUp.Set(float64(up))
	n.met.members.Set(float64(len(members)))
}

// Holds reports whether this node currently owns source — including a
// source mid-outbound-migration, whose rollback state still lives here.
// It is the Locate answer peers consult before creating a fresh monitor.
func (n *Node) Holds(source string) bool {
	n.mu.RLock()
	_, mig := n.migrating[source]
	n.mu.RUnlock()
	if mig {
		return true
	}
	_, ok := n.reg.Source(source)
	return ok
}

// IngestLine routes one wire line: locally if this node holds (or, per
// the ring, should create) the source, otherwise forwarded to the
// current owner. It satisfies the ingest server's line-router hook, so
// the TCP and HTTP transports route through the cluster transparently.
func (n *Node) IngestLine(defaultSource, line string) error {
	id := ingest.PeekSource(defaultSource, line)
	if id == "" {
		return nil // blank or comment keep-alive
	}
	return n.route(id, defaultSource, line, 0)
}

// HandleForward ingests a line forwarded by a peer (hop count already
// advanced by the sender's route pass).
func (n *Node) HandleForward(_ context.Context, defaultSource, line string, hops int) error {
	id := ingest.PeekSource(defaultSource, line)
	if id == "" {
		return nil
	}
	return n.route(id, defaultSource, line, hops)
}

// route delivers one line for source id: local, blocked-then-retried
// (outbound migration in flight), or forwarded. The loop re-evaluates
// ownership after every wait or redirect invalidation; the iteration
// bound only trips under pathological continuous churn.
func (n *Node) route(id, defaultSource, line string, hops int) error {
	return n.routeDeliver(id, defaultSource, hops,
		func() error { return n.reg.IngestLine(defaultSource, line) },
		func() string { return line })
}

// IngestColumns routes one columnar batch (a decoded binary wire
// frame): locally — straight down the registry's batch-first kernel
// path — when this node holds the source, otherwise re-rendered as a
// canonical text batch line (lossless: the text wire round-trips
// float64 exactly) and forwarded to the owner, since peers negotiate
// the forward transport in text. Routing semantics are exactly
// IngestLine's: a source mid-outbound-migration blocks the producer
// until the release — never buffers, so the columnar stream cannot
// reorder around the handoff. Ownership of cb transfers here: it is
// consumed by local delivery or released on every other path.
func (n *Node) IngestColumns(cb *transport.ColumnarBatch) error {
	id := cb.Source
	if id == "" {
		cb.Release()
		return ingest.ErrNoSource
	}
	delivered := false
	var line string
	err := n.routeDeliver(id, id, 0,
		func() error {
			delivered = true
			return n.reg.IngestColumns(cb)
		},
		func() string {
			if line == "" {
				line = ingest.FormatBatch(ingest.Batch{Source: id, Pairs: cb.AppendPairs(nil)})
			}
			return line
		})
	if !delivered {
		cb.Release()
	}
	return err
}

// routeDeliver is the routing loop shared by the line and columnar
// entry points: deliver() lands the unit on the local registry (called
// at most once, under the membership read lock), wireLine() renders the
// unit for peer forwarding (called only when forwarding, possibly
// repeatedly across retries).
func (n *Node) routeDeliver(id, defaultSource string, hops int, deliver func() error, wireLine func() string) error {
	for tries := 0; tries < 64; tries++ {
		if n.closed.Load() {
			return ErrClosed
		}
		n.mu.RLock()
		if mig, ok := n.migrating[id]; ok {
			done := mig.done
			n.mu.RUnlock()
			// Block until the release. Never buffer: a buffered line could
			// arrive at the new owner after lines that took the direct
			// path, reordering the source's stream.
			select {
			case <-done:
				continue
			case <-n.stopc:
				return ErrClosed
			case <-time.After(n.cfg.BlockTimeout):
				return fmt.Errorf("cluster: %s: migration release timeout", id)
			}
		}
		if _, held := n.reg.Source(id); held {
			// Owned-wins: deliver locally whatever the ring says. The read
			// lock is held across the send so a migration (write lock)
			// cannot detach the monitor between the check and the enqueue.
			err := deliver()
			n.mu.RUnlock()
			return err
		}
		target := n.redirects[id]
		ring := n.ring
		n.mu.RUnlock()

		viaRedirect := target != ""
		if !viaRedirect {
			target = ring.Owner(id)
		}
		if target == "" {
			return ErrNoOwner
		}
		if target == n.cfg.Self {
			// Ring owner without a local monitor: locate a live holder
			// first (it will push the source here on its next rebalance),
			// then the store (dead-node adoption), then create fresh.
			if holder := n.locateHolder(id); holder != "" {
				n.setRedirect(id, holder)
				continue
			}
			if n.adopt(id) {
				continue // now held locally; next pass delivers
			}
			// Genuinely new source: deliver locally, creating the monitor.
			n.mu.RLock()
			if _, mig := n.migrating[id]; mig {
				n.mu.RUnlock()
				continue
			}
			err := deliver()
			n.mu.RUnlock()
			return err
		}
		if hops >= n.cfg.MaxHops {
			return fmt.Errorf("%w: %s: hop budget exhausted at %d", ErrNoOwner, id, hops)
		}
		ctx, cancel := context.WithTimeout(n.ctx(), n.cfg.BlockTimeout)
		err := resilience.Retry(ctx, n.cfg.Retry, func(int) error {
			return n.cfg.Transport.Forward(ctx, target, defaultSource, wireLine(), hops+1)
		})
		cancel()
		if err != nil {
			if viaRedirect {
				// The cached holder went away; drop the hint and re-route
				// by ring.
				n.clearRedirect(id, target)
				continue
			}
			return fmt.Errorf("%w: %s via %s: %v", ErrNoOwner, id, target, err)
		}
		n.forwards.Add(1)
		n.met.forwards.Inc()
		return nil
	}
	return fmt.Errorf("%w: %s: routing did not converge", ErrNoOwner, id)
}

// setRedirect caches a located holder for id.
func (n *Node) setRedirect(id, holder string) {
	n.mu.Lock()
	n.redirects[id] = holder
	n.mu.Unlock()
}

// clearRedirect drops a redirect if it still points at holder.
func (n *Node) clearRedirect(id, holder string) {
	n.mu.Lock()
	if n.redirects[id] == holder {
		delete(n.redirects, id)
	}
	n.mu.Unlock()
}

// locateHolder asks every alive peer whether it holds id; first yes
// wins. "" means nobody answered yes.
func (n *Node) locateHolder(id string) string {
	for p, up := range n.snapshotPeers() {
		if !up {
			continue
		}
		ctx, cancel := context.WithTimeout(n.ctx(), 2*time.Second)
		holds, err := n.cfg.Transport.Locate(ctx, p, id)
		cancel()
		if err == nil && holds {
			return p
		}
	}
	return ""
}

// adopt restores id from the shared store (a dead node's last snapshot).
// Returns true when the source is now held locally.
func (n *Node) adopt(id string) bool {
	if n.cfg.Store == nil {
		n.adoptFresh.Add(1)
		n.met.adoptions.With("fresh").Inc()
		return false
	}
	blob, ok := n.cfg.Store.Get(id)
	if !ok {
		n.adoptFresh.Add(1)
		n.met.adoptions.With("fresh").Inc()
		return false
	}
	err := n.reg.AttachSource(id, blob, nil)
	switch {
	case err == nil:
	case errors.Is(err, ingest.ErrSourceExists):
		return true // lost a benign race with another adopter/creator
	default:
		n.cfg.Events.Error("cluster_adopt_failed", obs.Fields{
			"node": n.cfg.Self, "source": id, "error": err.Error(),
		})
		n.adoptFresh.Add(1)
		n.met.adoptions.With("fresh").Inc()
		return false
	}
	n.adoptRestore.Add(1)
	n.ownerChanges.Add(1)
	n.met.adoptions.With("restore").Inc()
	n.met.ownerChanges.Inc()
	n.cfg.Events.Info("cluster_source_adopted", obs.Fields{
		"node": n.cfg.Self, "source": id,
	})
	n.publish(control.Alert{Source: id, Kind: control.KindAdopted, To: n.cfg.Self, Node: n.cfg.Self})
	return true
}

// HandleHandoff receives a migration envelope (the acquire step):
// decode, verify, attach, ack. A nil return transfers ownership to this
// node. Duplicate delivery of a source this node already owns acks
// idempotently.
func (n *Node) HandleHandoff(envelope []byte) error {
	if n.closed.Load() {
		return resilience.Transient(ErrClosed)
	}
	if n.leaving.Load() {
		// A departing node must not accept new sources: a peer whose ring
		// still contains this node may try to push a just-migrated source
		// straight back during the leave window, and anything accepted now
		// would strand on a stopped node. The error is permanent (not
		// transient), so the sender rolls back immediately and keeps the
		// source until the leave announce rebalances it on the new ring.
		return fmt.Errorf("cluster: %s: %w", n.cfg.Self, ErrLeaving)
	}
	e, err := DecodeEnvelope(envelope)
	if err != nil {
		return err
	}
	err = n.reg.AttachSource(e.Source, e.State, e.Records)
	if errors.Is(err, ingest.ErrSourceExists) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: attach %q: %w", e.Source, err)
	}
	n.mu.Lock()
	delete(n.redirects, e.Source)
	n.mu.Unlock()
	n.ownerChanges.Add(1)
	n.met.ownerChanges.Inc()
	if n.cfg.Store != nil {
		n.cfg.Store.Put(e.Source, e.State)
	}
	return nil
}

// Migrate hands source id to target via acquire/ack/release. While the
// handoff is in flight, lines for the source block at this node; on ack
// they unblock toward the target, and on failure the monitor re-attaches
// here (rollback) so the source never goes unowned. It returns
// ErrNotHeld, having moved nothing, when this node does not hold the
// source or is already migrating it.
func (n *Node) Migrate(ctx context.Context, id, target string) error {
	if target == n.cfg.Self || target == "" {
		return fmt.Errorf("cluster: migrate %q: invalid target %q", id, target)
	}
	n.mu.Lock()
	if _, inFlight := n.migrating[id]; inFlight {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q: migration already in flight", ErrNotHeld, id)
	}
	if _, held := n.reg.Source(id); !held {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotHeld, id)
	}
	mig := &migration{target: target, done: make(chan struct{})}
	n.migrating[id] = mig
	n.mu.Unlock()

	release := func() {
		n.mu.Lock()
		delete(n.migrating, id)
		n.mu.Unlock()
		close(mig.done)
	}

	start := time.Now()
	// Detach at a sample boundary: the control message drains everything
	// already queued for the source into its monitor first, so the state
	// blob reflects every accepted sample.
	blob, recs, err := n.reg.DetachSource(id)
	if err != nil {
		release()
		if errors.Is(err, ingest.ErrUnknownSource) {
			return fmt.Errorf("%w: %q", ErrNotHeld, id)
		}
		return err
	}
	env, err := EncodeEnvelope(Envelope{
		Source:  id,
		Origin:  n.cfg.Self,
		Target:  target,
		State:   blob,
		Records: recs,
	})
	if err == nil {
		err = resilience.Retry(ctx, n.cfg.Retry, func(int) error {
			hctx, cancel := context.WithTimeout(withCaller(ctx, n.cfg.Self), n.cfg.BlockTimeout)
			defer cancel()
			return n.cfg.Transport.Handoff(hctx, target, env)
		})
	}
	if err != nil {
		// Rollback: the source stays here; owned-wins keeps serving it.
		if aerr := n.reg.AttachSource(id, blob, recs); aerr != nil && !errors.Is(aerr, ingest.ErrSourceExists) {
			release()
			return fmt.Errorf("cluster: migrate %q to %s failed (%v) and rollback failed: %w", id, target, err, aerr)
		}
		release()
		n.handoffFails.Add(1)
		n.met.handoffFailures.Inc()
		n.cfg.Events.Warn("cluster_handoff_failed", obs.Fields{
			"node": n.cfg.Self, "source": id, "target": target, "error": err.Error(),
		})
		return fmt.Errorf("cluster: migrate %q to %s: %w", id, target, err)
	}
	// Release: future lines for the source forward to the new owner even
	// before the ring catches up.
	n.mu.Lock()
	n.redirects[id] = target
	n.mu.Unlock()
	release()
	n.migrations.Add(1)
	n.met.migrations.Inc()
	if n.cfg.Tracer != nil {
		n.cfg.Tracer.Record(trace.StageMigrate, id, -1, n.migSeq.Add(1), start, time.Since(start))
	}
	n.cfg.Events.Info("cluster_source_migrated", obs.Fields{
		"node": n.cfg.Self, "source": id, "target": target,
		"bytes": len(env), "ms": time.Since(start).Milliseconds(),
	})
	n.publish(control.Alert{Source: id, Kind: control.KindMigrated, From: n.cfg.Self, To: target, Node: n.cfg.Self})
	return nil
}

// triggerRebalance schedules an async rebalance pass, coalescing
// triggers that arrive while one is running.
func (n *Node) triggerRebalance() {
	if n.closed.Load() {
		return
	}
	if n.rebalWant.CompareAndSwap(false, true) {
		go func() {
			for n.rebalWant.CompareAndSwap(true, false) {
				_ = n.Rebalance(n.ctx())
			}
		}()
	}
}

// Rebalance migrates every locally held source whose ring owner is no
// longer this node. It runs one pass at a time; concurrent calls queue
// behind the mutex. The returned error joins individual migration
// failures (each already rolled back; the next pass retries them).
func (n *Node) Rebalance(ctx context.Context) error {
	n.rebalMu.Lock()
	defer n.rebalMu.Unlock()
	if n.closed.Load() {
		return ErrClosed
	}
	n.mu.RLock()
	ring := n.ring
	n.mu.RUnlock()
	return n.migrateMisplaced(ctx, ring)
}

// migrateMisplaced pushes every held source whose owner under ring is
// another node.
func (n *Node) migrateMisplaced(ctx context.Context, ring *Ring) error {
	var errs []error
	for _, st := range n.reg.Sources() {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		if owner := ring.Owner(st.ID); owner != n.cfg.Self && owner != "" {
			// A source that left between the listing and the call is a
			// skip, not a failure.
			if err := n.Migrate(ctx, st.ID, owner); err != nil && !errors.Is(err, ErrNotHeld) {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Leave drains this node out of the cluster gracefully: every held
// source migrates to its owner on the ring without this node, peers are
// told to drop it, and the heartbeat loop stops. The registry is left
// open (the caller shuts it down).
func (n *Node) Leave(ctx context.Context) error {
	// Refuse inbound handoffs for the rest of this node's life before the
	// drain starts: see HandleHandoff for the bounce-back hazard.
	n.leaving.Store(true)
	n.rebalMu.Lock()
	n.mu.RLock()
	members := make([]string, 0, len(n.peers))
	for p, up := range n.peers {
		if up {
			members = append(members, p)
		}
	}
	n.mu.RUnlock()
	target := NewRing(n.cfg.Replicas, members)
	err := n.migrateMisplaced(ctx, target)
	n.rebalMu.Unlock()
	for _, p := range members {
		actx, cancel := context.WithTimeout(withCaller(ctx, n.cfg.Self), 2*time.Second)
		_ = n.cfg.Transport.Announce(actx, p, n.cfg.Self, AnnounceLeave)
		cancel()
	}
	n.Stop()
	return err
}

// Stop halts the heartbeat loop and marks the node closed for routing.
// It does not touch the registry.
func (n *Node) Stop() {
	n.closed.Store(true)
	n.stopOnce.Do(func() { close(n.stopc) })
	n.hbWg.Wait()
}

// Halt simulates (or performs) an abrupt stop: routing and heartbeats
// stop, the registry drains and closes, and — when syncStore is set —
// every source's final state lands in the shared store, which is what
// lets the survivors adopt with zero detector-state loss. Peers are NOT
// told; they notice via missed heartbeats.
func (n *Node) Halt(syncStore bool) error {
	n.Stop()
	if err := n.reg.Close(); err != nil {
		return err
	}
	if syncStore && n.cfg.Store != nil {
		states, err := n.reg.SnapshotStates()
		if err != nil {
			return err
		}
		for id, blob := range states {
			n.cfg.Store.Put(id, blob)
		}
	}
	return nil
}

// SyncStore writes every held source's current state to the shared
// store (the periodic-snapshot hook for deployments that want adoption
// to restore from fresher-than-crash state).
func (n *Node) SyncStore() error {
	if n.cfg.Store == nil {
		return nil
	}
	states, err := n.reg.SnapshotStates()
	if err != nil {
		return err
	}
	for id, blob := range states {
		n.cfg.Store.Put(id, blob)
	}
	return nil
}

// MemberStatus is one ring member's health as this node sees it.
type MemberStatus struct {
	Name  string `json:"name"`
	Self  bool   `json:"self"`
	Alive bool   `json:"alive"`
}

// Status is the /api/cluster document.
type Status struct {
	Self             string         `json:"self"`
	Members          []MemberStatus `json:"members"`
	Sources          int            `json:"sources"`
	Migrating        int            `json:"migrating"`
	Migrations       uint64         `json:"migrations"`
	OwnerChanges     uint64         `json:"owner_changes"`
	Forwards         uint64         `json:"forwards"`
	AdoptionsRestore uint64         `json:"adoptions_restored"`
	AdoptionsFresh   uint64         `json:"adoptions_fresh"`
	HandoffFailures  uint64         `json:"handoff_failures"`
}

// Status reports the node's cluster view and counters.
func (n *Node) Status() Status {
	n.mu.RLock()
	members := []MemberStatus{{Name: n.cfg.Self, Self: true, Alive: !n.closed.Load()}}
	for p, up := range n.peers {
		members = append(members, MemberStatus{Name: p, Alive: up})
	}
	migrating := len(n.migrating)
	n.mu.RUnlock()
	sortMembers(members)
	return Status{
		Self:             n.cfg.Self,
		Members:          members,
		Sources:          n.reg.NumSources(),
		Migrating:        migrating,
		Migrations:       n.migrations.Load(),
		OwnerChanges:     n.ownerChanges.Load(),
		Forwards:         n.forwards.Load(),
		AdoptionsRestore: n.adoptRestore.Load(),
		AdoptionsFresh:   n.adoptFresh.Load(),
		HandoffFailures:  n.handoffFails.Load(),
	}
}

// sortMembers orders member statuses by name for stable output.
func sortMembers(ms []MemberStatus) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Name < ms[j-1].Name; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

// Misplaced counts sources this node holds (or is migrating) whose ring
// owner is another node — zero once a rebalance has settled.
func (n *Node) Misplaced() int {
	n.mu.RLock()
	ring := n.ring
	c := len(n.migrating)
	n.mu.RUnlock()
	for _, st := range n.reg.Sources() {
		if owner := ring.Owner(st.ID); owner != n.cfg.Self && owner != "" {
			c++
		}
	}
	return c
}

// Ring returns the node's current routing ring (for tests and status).
func (n *Node) Ring() *Ring {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring
}
