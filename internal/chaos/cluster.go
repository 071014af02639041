package chaos

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/cluster"
	"agingmf/internal/ingest"
)

// ClusterFaults selects the faults a cluster campaign injects. The zero
// value runs plain routed load (still churny: the fleet fans out over
// consistent-hash routing with forwards on every line).
type ClusterFaults struct {
	// KillMidIngest crash-kills one node while producers are streaming,
	// WITHOUT the final store sync a graceful halt performs. The cluster
	// must recover — survivors adopt from the victim's last periodic
	// snapshot — but samples the victim accepted after that snapshot are
	// legitimately lost. The campaign verifies the loss is exactly the
	// post-snapshot window and nothing else: every source still ends
	// owned by exactly one node with monitor state byte-identical to an
	// oracle fed the batches that actually survived.
	KillMidIngest bool
	// Partition cuts the link between the two surviving peers for
	// PartitionFor mid-stream, then heals it. The cut is kept shorter
	// than the down-mark tolerance, so routing blocks and retries instead
	// of split-braining — zero loss, exact parity.
	Partition bool
	// PartitionFor is the cut duration (default 50ms).
	PartitionFor time.Duration
	// MigrateUnderLoad fires explicit live migrations of busy sources
	// between nodes while the final phase streams — handoffs must block,
	// release and preserve byte parity under concurrent ingest.
	MigrateUnderLoad bool
}

// ClusterConfig parameterizes one cluster chaos campaign.
type ClusterConfig struct {
	// Seed drives the deterministic traces.
	Seed int64
	// Nodes is the cluster size (default 3, minimum 3).
	Nodes int
	// Sources is the fleet size (default 48).
	Sources int
	// Samples is the per-source trace length (default 30, minimum 3).
	Samples int
	// Shards is the per-node registry shard count (default 2).
	Shards int
	// Faults selects the injected faults.
	Faults ClusterFaults
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Nodes < 3 {
		c.Nodes = 3
	}
	if c.Sources <= 0 {
		c.Sources = 48
	}
	if c.Samples < 3 {
		c.Samples = 30
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Faults.Partition && c.Faults.PartitionFor <= 0 {
		c.Faults.PartitionFor = 50 * time.Millisecond
	}
	return c
}

// ClusterReport is the outcome of a cluster campaign.
type ClusterReport struct {
	Seed    int64
	Nodes   int
	Sources int
	// LinesSent counts batch lines delivered; Retries counts producer
	// re-sends while routing was converging around faults.
	LinesSent uint64
	Retries   uint64
	// Killed names the crash-killed node ("" when the fault is off);
	// VictimSources counts sources in its registry at the kill.
	Killed        string
	VictimSources int
	// Migrations/Forwards/Adoptions aggregate the nodes' counters.
	Migrations uint64
	Forwards   uint64
	Adoptions  uint64
	// MultiOwned and Missing are ownership violations — always zero for a
	// graceful degradation.
	MultiOwned int
	Missing    int
	// SampleLoss is the total samples lost to the unsynced kill. It must
	// be zero unless KillMidIngest is set, and even then every lost
	// sample must be from a victim-held source's post-snapshot window.
	SampleLoss int64
	// ParityMismatches lists sources whose final state matches no legal
	// replay (full trace, or the kill-surviving batches) — must be empty.
	ParityMismatches []string
}

// Ok reports whether the cluster degraded gracefully: single ownership
// everywhere, state parity against the surviving batches, and loss only
// where the unsynced kill makes it unavoidable.
func (r ClusterReport) Ok() bool {
	if r.MultiOwned > 0 || r.Missing > 0 || len(r.ParityMismatches) > 0 {
		return false
	}
	return r.Killed != "" || r.SampleLoss == 0
}

// RunCluster executes one cluster chaos campaign: an in-process
// multi-node cluster under streaming load with crash-kills, partitions
// and live migrations injected. Like RunIngest, injected faults are
// never errors — a non-nil error means broken plumbing; every
// degradation verdict is in the report.
func RunCluster(ctx context.Context, cfg ClusterConfig) (ClusterReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	rep := ClusterReport{Seed: cfg.Seed, Nodes: cfg.Nodes, Sources: cfg.Sources}

	monCfg := aging.Config{
		MinRadius: 2, MaxRadius: 8, VolatilityWindow: 8,
		Detector: aging.DetectShewhart, ShewhartK: 4,
		DetectorWarmup: 8, Refractory: 4, HistoryLimit: 32,
	}
	traces := make([][][2]float64, cfg.Sources)
	ids := make([]string, cfg.Sources)
	for i := range traces {
		traces[i] = ingestTrace(cfg.Seed, i, cfg.Samples)
		ids[i] = fmt.Sprintf("cchaos-%04d", i)
	}

	tr := cluster.NewMemTransport()
	store := cluster.NewMemStore()
	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("cnode-%d", i)
	}
	newNode := func(i int) (*cluster.Node, error) {
		reg, err := ingest.NewRegistry(ingest.Config{
			Shards: cfg.Shards, QueueSize: 128, Monitor: monCfg, MaxSources: -1,
		})
		if err != nil {
			return nil, err
		}
		peers := make([]string, 0, cfg.Nodes-1)
		for _, p := range names {
			if p != names[i] {
				peers = append(peers, p)
			}
		}
		n, err := cluster.NewNode(cluster.Config{
			Self:      names[i],
			Peers:     peers,
			Transport: tr,
			Registry:  reg,
			Store:     store,
			// A generous miss budget keeps the short partition from
			// down-marking a live peer (which would split-brain the pair);
			// the kill is still detected in ~8 beats.
			HeartbeatEvery: 25 * time.Millisecond,
			HeartbeatMiss:  8,
		})
		if err != nil {
			reg.Close()
			return nil, err
		}
		tr.Register(n)
		return n, nil
	}
	nodes := make([]*cluster.Node, cfg.Nodes)
	for i := range nodes {
		n, err := newNode(i)
		if err != nil {
			return rep, fmt.Errorf("chaos: %w", err)
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Stop()
				_ = n.Registry().Close()
			}
		}
	}()

	var lines, retries atomic.Uint64
	sendPhase := func(entries []*cluster.Node, from, to int) error {
		var wg sync.WaitGroup
		var firstErr atomic.Value
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := p; i < cfg.Sources; i += 4 {
					line := ingest.FormatBatch(ingest.Batch{Source: ids[i], Pairs: traces[i][from:to]})
					entry := entries[i%len(entries)]
					var err error
					for attempt := 0; attempt < 400; attempt++ {
						if err = entry.IngestLine("chaos", line); err == nil {
							break
						}
						retries.Add(1)
						time.Sleep(5 * time.Millisecond)
					}
					if err != nil {
						firstErr.Store(fmt.Errorf("chaos: cluster source %s: %w", ids[i], err))
						return
					}
					lines.Add(1)
				}
			}(p)
		}
		wg.Wait()
		if err, _ := firstErr.Load().(error); err != nil {
			return err
		}
		return nil
	}

	third := cfg.Samples / 3
	cuts := [4]int{0, third, 2 * third, cfg.Samples}

	// Phase 1: full membership.
	if err := sendPhase(nodes, cuts[0], cuts[1]); err != nil {
		return rep, err
	}

	victim := nodes[1]
	survivors := []*cluster.Node{nodes[0], nodes[2]}
	victimHeld := map[string]int64{}
	if cfg.Faults.KillMidIngest {
		// The victim's last periodic snapshot lands now — everything it
		// accepts afterwards dies with it.
		if err := victim.SyncStore(); err != nil {
			return rep, fmt.Errorf("chaos: stale sync: %w", err)
		}
	}

	// Phase 2: streamed through the survivors; the kill and the partition
	// fire while these lines are in flight.
	var faultWg sync.WaitGroup
	faultWg.Add(1)
	go func() {
		defer faultWg.Done()
		time.Sleep(20 * time.Millisecond)
		if cfg.Faults.Partition {
			tr.Partition(survivors[0].Name(), survivors[1].Name())
			time.Sleep(cfg.Faults.PartitionFor)
			tr.Heal(survivors[0].Name(), survivors[1].Name())
		}
		if cfg.Faults.KillMidIngest {
			// Crash: no drain handshake with peers, no final store sync.
			victim.Stop()
			_ = victim.Registry().Close()
			tr.Unregister(victim.Name())
			for _, st := range victim.Registry().Sources() {
				victimHeld[st.ID] = st.Samples
			}
			rep.Killed = victim.Name()
			rep.VictimSources = len(victimHeld)
		}
	}()
	err := sendPhase(survivors, cuts[1], cuts[2])
	faultWg.Wait()
	if err != nil {
		return rep, err
	}

	if cfg.Faults.KillMidIngest {
		nodes[1] = nil
		restarted, err := newNode(1)
		if err != nil {
			return rep, fmt.Errorf("chaos: restart: %w", err)
		}
		nodes[1] = restarted
		restarted.Start()
	}

	// Phase 3: streamed during the rejoin rebalance, with explicit live
	// migrations layered on top when configured.
	var migWg sync.WaitGroup
	if cfg.Faults.MigrateUnderLoad {
		migWg.Add(1)
		go func() {
			defer migWg.Done()
			for round := 0; round < 3; round++ {
				for gi, n := range nodes {
					if n == nil {
						continue
					}
					target := nodes[(gi+1)%len(nodes)]
					if target == nil {
						continue
					}
					srcs := n.Registry().Sources()
					if len(srcs) > 4 {
						srcs = srcs[:4]
					}
					for _, st := range srcs {
						// Churn, not a check: a source that moved on
						// since the listing (cluster.ErrNotHeld) is
						// skipped, and a failed handoff rolls back.
						_ = n.Migrate(ctx, st.ID, target.Name())
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	err = sendPhase(nodes, cuts[2], cuts[3])
	migWg.Wait()
	if err != nil {
		return rep, err
	}

	// Settle: flush the queues, rebalance until nothing is misplaced.
	for _, n := range nodes {
		if err := n.Registry().Drain(); err != nil {
			return rep, fmt.Errorf("chaos: drain: %w", err)
		}
	}
	if err := waitClusterSettle(nodes, 60*time.Second); err != nil {
		return rep, err
	}

	for _, n := range nodes {
		st := n.Status()
		rep.Migrations += st.Migrations
		rep.Forwards += st.Forwards
		rep.Adoptions += st.AdoptionsRestore
	}
	rep.LinesSent = lines.Load()
	rep.Retries = retries.Load()

	// Verify: exactly one owner per source, and the final state matches a
	// legal replay — the full trace, or (for a victim-held source) the
	// batches that survived the unsynced kill.
	for i, id := range ids {
		var owner *cluster.Node
		owners := 0
		for _, n := range nodes {
			if _, ok := n.Registry().Source(id); ok {
				owner = n
				owners++
			}
		}
		if owners != 1 {
			rep.MultiOwned += max(owners-1, 0)
			if owners == 0 {
				rep.Missing++
			}
			continue
		}
		got, err := owner.Registry().MonitorState(id)
		if err != nil {
			return rep, fmt.Errorf("chaos: state of %s: %w", id, err)
		}
		st, _ := owner.Registry().Source(id)

		legal := [][]int{{0, 1, 2}} // batch indices of the full replay
		if _, wasVictim := victimHeld[id]; wasVictim {
			legal = append(legal, []int{0, 2}) // middle batch died with the victim
		}
		matched := false
		for _, chunks := range legal {
			ref, err := aging.NewDualMonitor(monCfg)
			if err != nil {
				return rep, fmt.Errorf("chaos: %w", err)
			}
			n := 0
			for _, c := range chunks {
				for _, p := range traces[i][cuts[c]:cuts[c+1]] {
					ref.Add(p[0], p[1])
				}
				n += cuts[c+1] - cuts[c]
			}
			want, err := ref.SaveState()
			if err != nil {
				return rep, fmt.Errorf("chaos: %w", err)
			}
			if int64(n) == st.Samples && bytes.Equal(got, want) {
				matched = true
				break
			}
		}
		if !matched {
			rep.ParityMismatches = append(rep.ParityMismatches, id)
		}
		if loss := int64(cfg.Samples) - st.Samples; loss > 0 {
			rep.SampleLoss += loss
		}
	}
	return rep, nil
}

// waitClusterSettle rebalances every node until no source is misplaced.
func waitClusterSettle(nodes []*cluster.Node, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		misplaced := 0
		for _, n := range nodes {
			_ = n.Rebalance(context.Background())
			misplaced += n.Misplaced()
		}
		if misplaced == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: cluster did not settle: %d misplaced", misplaced)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
