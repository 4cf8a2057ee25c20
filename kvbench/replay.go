package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"specpmt"
	"specpmt/internal/mvcc"
	"specpmt/internal/server"
	"specpmt/pds/hashmap"
)

// span is one traced interval on the run's monotonic clock. Parent is the
// index of the enclosing span in the same recorder, or -1; Req groups the
// spans of one request (replayed batches take their first op's id).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// replayOps caps the requests one replay drives.
const replayOps = 120_000

// txGets is the number of queued-path reads the replay times.
const txGets = 5000

// maxClientSpans caps the client spans one connection keeps in memory.
const maxClientSpans = 1 << 20

// recorder keeps spans in memory until the run ends.
type recorder struct{ spans []span }

func (r *recorder) open(name string, parent int, req uint64) int {
	r.spans = append(r.spans, span{Name: name, Start: now(), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) close(i int) { r.spans[i].End = now() }

// selfTimes returns, per span name, every span's self time: its duration
// minus the part of it its child spans cover (children of one parent never
// overlap here, so their durations add).
func selfTimes(spans []span) map[string][]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]int64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start-child[i])
	}
	for _, v := range out {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	return out
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayResult is what the layer replay measured.
type replayResult struct {
	spans           []span
	ops             int
	commits         int
	allocsPerTx     float64
	allocBytesPerTx float64
	modelCommitNs   []int64
	reclaimNs       []int64
}

// replay drives the workload's seeded op stream straight through each
// layer's public functions, one span per call: the wire codec of the
// workload's protocol, SpecSPMT threads running hashmap TxPut/TxGet and
// commit (batch ops per transaction, the batch size the server formed),
// and one MVCC store per shard. Both codecs run on every request; the
// closure sums only the workload's own. It runs for replayOps requests or
// budget, whichever ends first.
func replay(w workload, seed int64, batch int, budget time.Duration) (*replayResult, error) {
	pool, err := specpmt.OpenThreaded(specpmt.Config{Engine: engine, Profile: profile}, shards)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	var ths [shards]*specpmt.Thread
	var maps [shards]*hashmap.Map
	var stores [shards]*mvcc.Store
	for i := range ths {
		ths[i] = pool.Thread(i)
		if maps[i], err = hashmap.New(ths[i], i); err != nil {
			return nil, err
		}
		stores[i] = &mvcc.Store{}
	}
	// Preload: sequence 1 on every key, like the server's preload.
	var owned [shards][]uint64
	for k := 0; k < w.keys; k++ {
		s := server.ShardOf(uint64(k), shards)
		owned[s] = append(owned[s], uint64(k))
		stores[s].Seed(uint64(k), value(k, 1), 0)
	}
	for s, keys := range owned {
		for len(keys) > 0 {
			chunk := keys[:min(64, len(keys))]
			keys = keys[len(chunk):]
			if err := putBatch(ths[s], maps[s], chunk, func(k uint64) uint64 { return value(int(k), 1) }); err != nil {
				return nil, err
			}
		}
	}

	res := &replayResult{}
	rec := &recorder{}
	gens := make([]*gen, len(w.conns))
	for i := range gens {
		gens[i] = newGen(w, i, seed)
	}
	seq := make([]uint64, w.keys)       // last sequence sent
	installed := make([]uint64, w.keys) // last sequence visible to snapshots
	for k := range seq {
		seq[k], installed[k] = 1, 1
	}
	var lsn [shards]uint64
	var pend [shards][]server.Op
	var pendReq [shards]uint64
	var unfenced [shards]int
	depth := max(w.depth, 1)
	var lineBuf, replyBuf, frameBuf []byte
	var ops []server.Op
	results := []server.Result{{}}

	commit := func(s int) error {
		if len(pend[s]) == 0 {
			return nil
		}
		th, m := ths[s], maps[s]
		b := rec.open("replay.batch", -1, pendReq[s])
		if err := m.EnsureHeadroom(uint64(len(pend[s]))); err != nil {
			return err
		}
		tx := th.Begin()
		for _, op := range pend[s] {
			i := rec.open("hashmap.txput", b, pendReq[s])
			err := m.TxPut(tx, op.Key, op.Arg1)
			rec.close(i)
			if err != nil {
				return err
			}
		}
		cycles := th.Counters().ReclaimCycles
		model := th.Now()
		i := rec.open("spec.commit", b, pendReq[s])
		if depth > 1 {
			if err := tx.(specpmt.DeferredCommitTx).CommitNoFence(); err != nil {
				return err
			}
			if unfenced[s]++; unfenced[s] == depth {
				th.Fence()
				unfenced[s] = 0
			}
		} else if err := tx.Commit(); err != nil {
			return err
		}
		rec.close(i)
		res.modelCommitNs = append(res.modelCommitNs, th.Now()-model)
		if th.Counters().ReclaimCycles != cycles {
			res.reclaimNs = append(res.reclaimNs, rec.spans[i].End-rec.spans[i].Start)
		}
		m.ReleaseRetired()
		res.commits++
		for _, op := range pend[s] {
			if op.Kind == server.OpSet {
				lsn[s]++
				j := rec.open("mvcc.install", b, pendReq[s])
				stores[s].Install(op.Key, op.Arg1, false, lsn[s])
				stores[s].Advance(lsn[s])
				rec.close(j)
				installed[op.Key] = op.Arg1 & (1<<seqBits - 1)
			}
		}
		rec.close(b)
		pend[s] = pend[s][:0]
		return nil
	}

	stopAt := time.Now().Add(budget)
	for req := uint64(1); req <= replayOps && time.Now().Before(stopAt); req++ {
		get, k, _ := gens[int(req)%len(gens)].next()
		op := server.Op{Kind: server.OpGet, Key: uint64(k)}
		if !get {
			seq[k]++
			op = server.Op{Kind: server.OpSet, Key: uint64(k), Arg1: value(k, seq[k])}
		}
		s := server.ShardOf(op.Key, shards)
		root := rec.open("replay.request", -1, req)
		// Decode the request with both codecs, as the server would.
		frameBuf, _ = server.AppendOpsFrame(frameBuf[:0], []server.Op{op})
		i := rec.open("server.bin_decode", root, req)
		ops, err = server.DecodeOpsFrame(frameBuf[4:], ops[:0])
		rec.close(i)
		if err == nil {
			lineBuf = server.AppendCommand(lineBuf[:0], op)
			i = rec.open("server.text_parse", root, req)
			_, err = server.ParseCommand(lineBuf[:len(lineBuf)-1])
			rec.close(i)
		}
		if err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		var modelNs int64
		if get {
			// GETs take the lock-free snapshot path.
			i = rec.open("mvcc.get", root, req)
			snap, ok := stores[s].Acquire()
			if ok {
				results[0].Val, _ = stores[s].Get(snap, op.Key)
				stores[s].Release(snap)
			}
			rec.close(i)
			results[0].Status = server.StatusValue
			if want := value(k, installed[k]); !ok || results[0].Val != want {
				return nil, fmt.Errorf("replay: snapshot read of key %d returned %#x, want %#x", k, results[0].Val, want)
			}
		} else {
			if len(pend[s]) == 0 {
				pendReq[s] = req
			}
			pend[s] = append(pend[s], op)
			if len(pend[s]) >= batch {
				if err := commit(s); err != nil {
					return nil, err
				}
			}
			results[0] = server.Result{Status: server.StatusOK}
			modelNs = 1
		}
		i = rec.open("server.bin_reply", root, req)
		replyBuf = server.AppendReplyFrame(replyBuf[:0], results, modelNs)
		rec.close(i)
		i = rec.open("server.text_reply", root, req)
		replyBuf = server.AppendResultExt(replyBuf[:0], results[0], modelNs, get, 0)
		rec.close(i)
		rec.close(root)
		res.ops++
	}
	for s := range pend {
		if err := commit(s); err != nil {
			return nil, err
		}
	}

	// The queued read path (a GET that misses the snapshot path): TxGet
	// inside a read-only transaction, over the stream's keys.
	for i := 0; i < txGets; i++ {
		_, k, _ := gens[i%len(gens)].next()
		s := server.ShardOf(uint64(k), shards)
		tx := ths[s].Begin()
		j := rec.open("hashmap.txget", -1, 0)
		v, ok := maps[s].TxGet(tx, uint64(k))
		rec.close(j)
		if err := tx.Abort(); err != nil {
			return nil, err
		}
		if !ok || v>>seqBits != uint64(k) {
			return nil, fmt.Errorf("replay: TxGet of key %d returned %#x", k, v)
		}
	}

	// Allocations per transaction, measured untraced over fresh batches
	// whose keys are drawn before the measurement starts.
	const allocTxs = 2000
	batches := make([][]uint64, allocTxs)
	for i := range batches {
		for len(batches[i]) < batch {
			if _, k, _ := gens[len(gens)-1].next(); server.ShardOf(uint64(k), shards) == i%shards {
				batches[i] = append(batches[i], uint64(k))
			}
		}
	}
	next := func(k uint64) uint64 { seq[k]++; return value(int(k), seq[k]) }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, keys := range batches {
		if err := putBatch(ths[i%shards], maps[i%shards], keys, next); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	res.allocsPerTx = float64(after.Mallocs-before.Mallocs) / allocTxs
	res.allocBytesPerTx = float64(after.TotalAlloc-before.TotalAlloc) / allocTxs
	res.spans = rec.spans
	return res, nil
}

// putBatch commits keys into m as one transaction, growing the table first.
func putBatch(th *specpmt.Thread, m *hashmap.Map, keys []uint64, val func(uint64) uint64) error {
	if err := m.EnsureHeadroom(uint64(len(keys))); err != nil {
		return err
	}
	tx := th.Begin()
	for _, k := range keys {
		if err := m.TxPut(tx, k, val(k)); err != nil {
			tx.Abort()
			m.DiscardRetired()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		m.DiscardRetired()
		return err
	}
	m.ReleaseRetired()
	return nil
}
