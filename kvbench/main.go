// Command kvbench is the repository benchmark: it runs the SpecPMT KV server
// in-process over loopback TCP, drives one named closed-loop workload from
// one process, checks every reply and every acknowledged write against an
// exact oracle (including after a simulated power failure), and prints the
// workload's metrics as one JSON object on the last line of stdout.
//
//	kvbench --workload write-hot --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: it measures an untraced and a traced window of
// --seconds each,
// reads the per-layer counters over the traced one, replays the same
// seeded op stream through each layer's public functions with one span per
// call, and prints the per-layer metrics. The process exits non-zero when
// the correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupsPerRun is how many times an untraced run sets the system up;
// setup_s is the median.
const setupsPerRun = 3

type options struct {
	workload    workload
	seed        int64
	seconds     float64
	trace       bool
	setups      int
	spansDir    string
	wrongOracle wrongOracle
}

func main() {
	var o options
	name := flag.String("workload", "", "workload: closed-text, write-hot or replicated-ack")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", "", "directory the traced run writes its spans to (empty: none)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "kvbench: unknown workload %q or --trace %d\n", *name, *traceFlag)
		os.Exit(2)
	}
	o.workload, o.trace, o.setups = w, *traceFlag == 1, setupsPerRun
	res, prov, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	out.Encode(map[string]any{"provenance": prov})
	out.Encode(res)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "kvbench: correctness gate failed")
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result and provenance.
func run(o options) (*result, map[string]any, error) {
	prov := map[string]any{
		"workload":   o.workload.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"engine":     engine,
		"profile":    profile,
		"shards":     shards,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
	if o.trace {
		res, err := traced(o, prov)
		return res, prov, err
	}
	res, err := untraced(o, prov)
	return res, prov, err
}

// untraced measures the end-to-end metrics.
func untraced(o options, prov map[string]any) (*result, error) {
	w := o.workload
	var setups []float64
	var e *env
	for i := 0; i < max(o.setups, 1); i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(w, o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	s0, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	r, space, err := e.timed(seconds(o.seconds), false, true)
	if err != nil {
		return nil, err
	}
	s1, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	g := e.gate(o.wrongOracle)

	res := &result{Metrics: map[string]metric{}, Attempted: r.attempted, Failed: r.failed}
	if g.readback != nil {
		res.Attempted += g.readback.attempted
		res.Failed += g.readback.failed
	}
	res.Correct = g.err == nil && res.Failed == 0
	if g.err != nil {
		fmt.Fprintln(os.Stderr, "kvbench: gate:", g.err)
		return res, nil
	}
	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	prov["setup_s_each"] = setups

	sl, err := summarise("set latency", r.set, o.seconds)
	if err != nil {
		return nil, err
	}
	prov["samples"] = map[string]int{"set": sl.n, "get": r.get.n()}
	m["set_ops_s"] = metric{sl.rate, "ops/s"}
	m["set_p50_us"] = metric{sl.p50, "us"}
	m["recovery_s"] = metric{median(g.recoveries), "s"}
	prov["recovery_s_each"] = g.recoveries
	writes := float64(s1.stats["ops_set"] - s0.stats["ops_set"])
	m["model_ns_per_write"] = metric{ratio(float64(s1.modelNs-s0.modelNs), writes), "ns"}
	m["space_amp"] = metric{median(space), "ratio"}
	return res, nil
}

// latencies summarises a window's GETs and SETs. A workload without GETs
// (write-hot) reports zero GET figures.
func latencies(r *connResult, secs float64, prov map[string]any) (gl, sl latency, err error) {
	if r.get.n() > 0 {
		if gl, err = summarise("get latency", r.get, secs); err != nil {
			return
		}
	}
	if sl, err = summarise("set latency", r.set, secs); err != nil {
		return
	}
	prov["samples"] = map[string]int{"get": gl.n, "set": sl.n}
	return
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traced is the separate traced run: per-layer metrics.
func traced(o options, prov map[string]any) (*result, error) {
	w := o.workload
	e, err := setup(w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	plain, _, err := e.timed(seconds(o.seconds), false, false)
	if err != nil {
		return nil, err
	}
	s0, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	r, _, err := e.timed(seconds(o.seconds), true, false)
	if err != nil {
		return nil, err
	}
	s1, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	g := e.gate(o.wrongOracle)
	res := &result{Metrics: map[string]metric{}, Attempted: plain.attempted + r.attempted, Failed: plain.failed + r.failed}
	if g.readback != nil {
		res.Attempted += g.readback.attempted
		res.Failed += g.readback.failed
	}
	res.Correct = g.err == nil && res.Failed == 0
	if g.err != nil {
		fmt.Fprintln(os.Stderr, "kvbench: gate:", g.err)
		return res, nil
	}

	m := res.Metrics
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	d := func(stat string) float64 { return float64(s1.stats[stat] - s0.stats[stat]) }
	writes := d("ops_set")
	gets := d("ops_get")
	dc := func(a, b uint64) float64 { return ratio(float64(b-a), writes) }

	opsPerBatch := ratio(d("batched_ops"), d("batches"))
	put("server.ops_per_batch", "ops", opsPerBatch)
	put("server.queue_depth_p50", "jobs", histQuantile(histDelta(s0.hists["specpmt_queue_depth"], s1.hists["specpmt_queue_depth"]), 0.5))
	commitH := histDelta(s0.hists["specpmt_commit_ns"], s1.hists["specpmt_commit_ns"])
	put("server.commit_us_p50", "us", histQuantile(commitH, 0.5)/1e3)
	put("server.commit_us_p99", "us", histQuantile(commitH, 0.99)/1e3)
	put("server.replies_per_retire_mean", "replies", histMean(histDelta(s0.hists["specpmt_parked_replies"], s1.hists["specpmt_parked_replies"])))
	put("server.pipeline_depth", "batches", float64(s1.stats["pipeline_depth"]))

	c0, c1 := s0.c, s1.c
	put("pmem.fences_per_write", "count", dc(c0.Fences, c1.Fences))
	put("pmem.flushes_per_write", "count", dc(c0.Flushes, c1.Flushes))
	put("pmem.fence_ns_per_write", "ns", dc(c0.FenceNs, c1.FenceNs))
	put("pmem.bytes_per_write", "B", dc(c0.PMWriteBytes, c1.PMWriteBytes))
	put("pmem.log_bytes_per_write", "B", dc(c0.PMLogBytes, c1.PMLogBytes))
	put("pmem.data_bytes_per_write", "B", dc(c0.PMDataBytes, c1.PMDataBytes))
	put("pmem.gc_bytes_per_write", "B", dc(c0.PMGCBytes, c1.PMGCBytes))
	put("pmem.seq_line_ratio", "ratio", ratio(float64(c1.SeqLines-c0.SeqLines), float64(c1.SeqLines-c0.SeqLines+c1.RandLines-c0.RandLines)))
	put("spec.log_records_per_write", "count", dc(c0.LogRecords, c1.LogRecords))
	put("spec.reclaim_cycles_per_kwrite", "count", 1000*dc(c0.ReclaimCycles, c1.ReclaimCycles))
	put("spec.reclaimed_entries_per_write", "count", dc(c0.LogReclaimed, c1.LogReclaimed))
	put("spec.live_log_mb", "MiB", float64(c1.LogBytesLive)/(1<<20))
	put("spec.log_peak_mb", "MiB", float64(c1.LogBytesPeak)/(1<<20))
	put("hashmap.keys", "count", float64(s1.stats["keys"]))
	put("mvcc.snapshot_read_ratio", "ratio", ratio(d("snapshot_reads"), gets))
	put("mvcc.snapshot_fallbacks", "count", d("snapshot_fallbacks"))
	put("mvcc.versions_live", "count", float64(s1.stats["versions_live"]))
	put("mvcc.version_reclaims_per_write", "count", ratio(d("version_reclaims"), writes))
	put("pmalloc.heap_live_mb", "MiB", float64(s1.stats["heap_live_bytes"])/(1<<20))
	put("pmalloc.footprint_ratio", "ratio", ratio(float64(s1.stats["heap_footprint_bytes"]), float64(s1.stats["heap_live_bytes"])))

	var opsPerRun, recsPerWrite float64
	if s1.replica != nil {
		rd := func(stat string) float64 { return float64(s1.replica[stat] - s0.replica[stat]) }
		opsPerRun = ratio(rd("repl_ops_applied"), rd("repl_runs_applied"))
		recsPerWrite = ratio(rd("repl_records_applied"), writes)
	}
	put("repl.ops_per_run", "ops", opsPerRun)
	put("repl.records_per_write", "count", recsPerWrite)
	put("repl.lag_end", "records", float64(g.lagEnd))
	put("repl.drain_ms", "ms", g.drainMs)
	put("repl.sync_timeouts", "count", d("repl_sync_timeouts"))
	put("error_ratio", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))

	// Layer replay of the same seeded op stream.
	rp, err := replay(w, o.seed, max(1, int(opsPerBatch+0.5)), 6*time.Second)
	if err != nil {
		return nil, err
	}
	self := selfTimes(rp.spans)
	p50 := func(name string) float64 { return float64(quantile(self[name], 0.5)) }
	put("server.text_parse_ns_p50", "ns", p50("server.text_parse"))
	put("server.text_reply_ns_p50", "ns", p50("server.text_reply"))
	put("server.bin_decode_ns_p50", "ns", p50("server.bin_decode"))
	put("server.bin_reply_ns_p50", "ns", p50("server.bin_reply"))
	commits := self["spec.commit"]
	if beyond := len(commits) - int(0.99*float64(len(commits))); beyond < minTail {
		return nil, fmt.Errorf("replay: %d commits are too few for a p99", len(commits))
	}
	put("spec.commit_ns_p50", "ns", p50("spec.commit"))
	put("spec.commit_ns_p99", "ns", float64(quantile(commits, 0.99)))
	sort.Slice(rp.modelCommitNs, func(i, j int) bool { return rp.modelCommitNs[i] < rp.modelCommitNs[j] })
	put("spec.model_commit_ns_p50", "ns", float64(quantile(rp.modelCommitNs, 0.5)))
	put("spec.allocs_per_commit", "count", rp.allocsPerTx)
	put("spec.alloc_bytes_per_commit", "B", rp.allocBytesPerTx)
	sort.Slice(rp.reclaimNs, func(i, j int) bool { return rp.reclaimNs[i] < rp.reclaimNs[j] })
	put("spec.reclaim_ms_p50", "ms", float64(quantile(rp.reclaimNs, 0.5))/1e6)
	put("hashmap.txput_ns_p50", "ns", p50("hashmap.txput"))
	put("hashmap.txget_ns_p50", "ns", p50("hashmap.txget"))
	put("mvcc.get_ns_p50", "ns", p50("mvcc.get"))
	put("mvcc.install_ns_p50", "ns", p50("mvcc.install"))

	// Closure: the SET p50 of the traced window against the medians of the
	// layers a SET crosses (decode, put, commit, install, reply).
	decode, reply := "server.bin_decode", "server.bin_reply"
	if w.conns[0].proto == "text" {
		decode, reply = "server.text_parse", "server.text_reply"
	}
	sl, err := summarise("set latency", r.set, o.seconds)
	if err != nil {
		return nil, err
	}
	var layers float64
	for _, n := range []string{decode, "hashmap.txput", "spec.commit", "mvcc.install", reply} {
		layers += p50(n)
	}
	put("trace.closure_residual_us", "us", sl.p50-layers/1e3)
	put("trace.overhead_pct", "%", 100*(ratio(float64(plain.attempted), float64(r.attempted))-1))
	// GET figures and tail latency of the untraced window, and the samples
	// behind them: reported, not gated (see README).
	gl, pl, err := latencies(plain, o.seconds, prov)
	if err != nil {
		return nil, err
	}
	put("get_ops_s", "ops/s", gl.rate)
	put("get_p50_us", "us", gl.p50)
	put("get_p99_us", "us", gl.p99)
	put("set_p99_us", "us", pl.p99)
	put("bench.samples_get", "count", float64(gl.n))
	put("bench.samples_set", "count", float64(pl.n))
	prov["replay"] = map[string]int{"requests": rp.ops, "commits": rp.commits, "batch": max(1, int(opsPerBatch+0.5))}

	if o.spansDir != "" {
		spans := append(append([]span(nil), r.spans[:min(len(r.spans), maxDumpSpans/2)]...), rp.spans[:min(len(rp.spans), maxDumpSpans/2)]...)
		path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		prov["spans"] = path
	}
	return res, nil
}

// maxDumpSpans caps the spans one traced run writes out.
const maxDumpSpans = 100_000
