// Command perfbench is the repository benchmark: socket-to-verdict
// throughput and latency of the fleet aging daemon on seeded memsim
// fleets, with a traced per-layer replay. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload replay-binary --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// machine shape, the inputs and every sample count.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads are the traffic mixes. BENCHMARK.json names the first two;
// fleet-text and cluster-forward run only by hand, because on a shared
// host their run-to-run spread exceeds the bounds (see README.md).
var workloads = []*workload{
	{
		name: "replay-binary", why: "backfill of archived fleets: a few dozen long sources as 4096-sample binary frames, recorder off; the Holder kernel dominates",
		sources: 32, frame: 4096, cycle: 16 * 4096, conns: 2, rate: 1.6e6, detectors: []string{"holder"}, verifyEvery: 8,
	},
	{
		name: "suite-binary", why: "holder, entropy and adaptive detectors with the recorder on, fed relay-batched 256-sample frames from 64 sources; detection and alerts dominate",
		sources: 64, frame: 256, cycle: 16 * 256, conns: 2, rate: 220e3, detectors: []string{"holder", "entropy", "adaptive"},
		recorder: 64, verifyEvery: 4,
	},
	{
		name: "fleet-text", why: "1024 agents flush buffered samples as single-sample text lines into a daemon restarted from a snapshot; per-unit costs dominate",
		text: true, sources: 1024, frame: 1, cycle: 512, burst: 64, conns: 2, rate: 110e3, detectors: []string{"holder"},
		recorder: 64, warm: true, verifyEvery: 1,
	},
	{
		name: "cluster-forward", why: "three clustered nodes; 256-sample frames enter one node and half are forwarded to their owner",
		sources: 48, frame: 256, cycle: 64 * 256, conns: 2, rate: 380e3, detectors: []string{"holder"}, recorder: 64, nodes: 3, verifyEvery: 2,
	},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed window length in seconds")
	traced := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", *seconds)
	}
	tmp, err := tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	in, err := prepare(w, *seed)
	if err != nil {
		return err
	}
	live, err := runLive(in, *seconds, tmp, *traced == 1)
	if err != nil {
		return err
	}
	res := result{
		Correct:   len(live.problems) == 0,
		Attempted: live.units,
		Failed:    live.failedUnits,
		Metrics:   map[string]metric{},
	}
	info := runInfo(in, live, *seconds)
	// Honest-data guard: the reported p99 needs minBeyond samples past it.
	if p, _ := highestPercentile(len(live.latMs), []float64{99, 95, 90, 50}); p != 99 {
		live.problems = append(live.problems, fmt.Sprintf(
			"honest-data guard: %d latency samples support p%v at most, not p99", len(live.latMs), p))
		res.Correct = false
	}
	if *traced == 1 {
		layers, err := runTraced(in, live)
		if err != nil {
			return err
		}
		for k, v := range layers.metrics {
			res.Metrics[k] = v
		}
		info["spans_file"] = layers.spansFile
		info["traced_samples"] = layers.samples
	} else if len(live.latMs) > 0 {
		res.Metrics = endToEnd(live)
	}
	if len(live.latMs) > 0 {
		info["verdict_latency"] = map[string]any{
			"p50_ms": windowed(live.latMs, 50), "p99_ms": windowed(live.latMs, 99), "units": len(live.latMs),
			"generator_late_p50_ms": windowed(live.lateMs, 50),
		}
	}
	info["problems"] = live.problems
	if err := printJSON(info); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed: %s", w.name, strings.Join(live.problems, "; "))
	}
	return nil
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(live *liveOut) map[string]metric {
	return map[string]metric{
		"ingest_samples_per_s":   {median(append([]float64(nil), live.rates...)), "samples/s"},
		"cpu_ns_per_sample":      {live.cpuNs, "ns"},
		"verdict_latency_p50_ms": {windowed(live.latMs, 50), "ms"},
		"heap_bytes_per_source":  {live.heapPerSrc, "B"},
		"setup_s":                {median(append([]float64(nil), live.setupS...)), "s"},
	}
}

// runInfo records the machine shape, the inputs and the sample counts
// behind every figure.
func runInfo(in *inputs, live *liveOut, seconds int) map[string]any {
	w, pl := in.w, in.plan
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	frac := 0.0
	if live.units > 0 {
		frac = float64(live.failedUnits) / float64(live.units)
	}
	return map[string]any{
		"workload": w.name,
		"machine": map[string]any{
			"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "os_arch": runtime.GOOS + "/" + runtime.GOARCH,
		},
		"source_tree": sourceDigest(),
		"seed":        in.seed,
		"seconds":     seconds,
		"inputs": map[string]any{
			"sources": w.sources, "unit_samples": w.frame, "text": w.text,
			"samples_per_source_per_round": pl.cycle,
			"warm_samples_per_source":      in.lead, "wire_bytes_per_round": pl.wireBytes(),
			"pool_samples": in.pool.len(), "pool_lives": len(in.pool.boots), "connections": w.conns,
			"verified_sources": len(in.verify),
		},
		"paced_phase": map[string]any{
			"offered_samples_per_s": w.rate, "share_of_window": pacedShare, "rounds": live.pacedRounds,
			"status_reads_per_s": live.pollsPerSec,
			"gc_cycles":          live.gcPaced,
		},
		"daemon": map[string]any{
			"shards": 8, "queue": 1024, "history_limit": 4096, "detectors": w.detectors,
			"flight_recorder_depth": w.recorder, "cluster_nodes": w.nodes,
		},
		"counts": map[string]any{
			"closed_rounds": live.rounds, "closed_samples": live.samples, "units": live.units,
			"latency_units": len(live.latMs), "alerts_received": len(live.alerts),
			"setup_reps": len(live.setupS), "lateness_units": len(live.lateMs),
			"queue_depth_samples":        len(live.depths),
			"gc_cycles_in_closed_rounds": live.gcCycles, "bench_heap_bytes": live.benchHeap,
		},
		"steal_share": live.steal,
		"failed_frac": metric{frac, "ratio"},
	}
}

// sourceDigest identifies the code under test: the commit when the
// checkout is a git work tree, and a SHA-256 over every Go source and
// go.mod file outside the benchmark either way.
func sourceDigest() map[string]string {
	out := map[string]string{"commit": "unknown"}
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		out["commit"] = ref
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == "perfbench" || p == ".bench_build" || p == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	out["go_sources_sha256"] = hex.EncodeToString(h.Sum(nil))
	return out
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
