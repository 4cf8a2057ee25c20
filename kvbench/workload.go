package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"specpmt/internal/server"
)

// workload is one named traffic mix. Every workload runs SpecSPMT over
// optane-adr on 4 shards with MVCC on; only the fields below vary.
type workload struct {
	name       string
	keys       int
	depth      int // server.Config.PipelineDepth (0 keeps the default)
	replicated bool
	conns      []connSpec
}

// connSpec is one closed-loop client connection: a protocol, a fixed
// number of outstanding ops, and the keys it reads and writes. Every key
// has at most one writing connection, so the oracle is exact.
type connSpec struct {
	proto  string
	window int
	getPct int            // share of ops that are GETs, in percent
	owns   func(int) bool // keys this connection draws from
}

func all(int) bool              { return true }
func half(i int) func(int) bool { return func(k int) bool { return k%2 == i } }

var workloads = map[string]workload{
	"closed-text": {
		name: "closed-text", keys: 4096,
		conns: []connSpec{{proto: "text", window: 1, getPct: 50, owns: all}},
	},
	"write-hot": {
		name: "write-hot", keys: 4096, depth: 4,
		conns: []connSpec{
			{proto: "binary", window: 128, owns: half(0)},
			{proto: "binary", window: 128, owns: half(1)},
		},
	},
	"replicated-ack": {
		name: "replicated-ack", keys: 4096, replicated: true,
		conns: []connSpec{{proto: "text", window: 1, getPct: 50, owns: all}},
	},
}

// source yields a connection's ops. ok=false ends the stream.
type source interface {
	next() (get bool, key int, ok bool)
}

// gen is a seeded random op stream, uniform over one connection's keys.
type gen struct {
	r      *rand.Rand
	keys   []int
	getPct int
}

// newGen builds connection ci's op stream from seed.
func newGen(w workload, ci int, seed int64) *gen {
	cs := w.conns[ci]
	var keys []int
	for k := 0; k < w.keys; k++ {
		if cs.owns(k) {
			keys = append(keys, k)
		}
	}
	return &gen{r: rand.New(rand.NewSource(seed*1000003 + int64(ci) + 1)), keys: keys, getPct: cs.getPct}
}

func (g *gen) next() (bool, int, bool) {
	get := g.getPct > 0 && g.r.Intn(100) < g.getPct
	return get, g.keys[g.r.Intn(len(g.keys))], true
}

// limit caps a source at n ops.
type limit struct {
	src source
	n   int
}

func (l *limit) next() (bool, int, bool) {
	if l.n <= 0 {
		return false, 0, false
	}
	l.n--
	return l.src.next()
}

// sweep visits the given keys once, in order: the preload (SETs) and the
// read-back (GETs).
type sweep struct {
	get  bool
	keys []int
	i    int
}

func (s *sweep) next() (bool, int, bool) {
	if s.i >= len(s.keys) {
		return false, 0, false
	}
	s.i++
	return s.get, s.keys[s.i-1], true
}

// oracle tracks, per key, the last sequence number its single writer sent
// and the last one the server acknowledged. Values encode key and sequence
// (key<<40 | seq), so every reply is checkable on its own.
type oracle struct {
	sent, acked []atomic.Uint64
}

func newOracle(keys int) *oracle {
	return &oracle{sent: make([]atomic.Uint64, keys), acked: make([]atomic.Uint64, keys)}
}

const seqBits = 40

func value(k int, seq uint64) uint64 { return uint64(k)<<seqBits | seq }

// expect returns the acknowledged state as the map CheckRecovered wants.
func (o *oracle) expect() map[uint64]uint64 {
	m := make(map[uint64]uint64, len(o.acked))
	for k := range o.acked {
		if seq := o.acked[k].Load(); seq > 0 {
			m[uint64(k)] = value(k, seq)
		}
	}
	return m
}

// window is the timed interval, on the run's monotonic clock.
type window struct{ start, end int64 }

func (w window) in(t int64) bool { return t >= w.start && t <= w.end }

// connResult is one connection's tally for one drive call.
type connResult struct {
	get, set          samples // completed inside the window
	attempted, failed int64   // every op, window or not
	spans             []span
}

var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// pending is one outstanding request.
type pending struct {
	get  bool
	key  int
	seq  uint64 // SET: sequence sent; GET: acknowledged floor at send
	sent int64
}

// drive runs one closed loop on c: it keeps up to depth requests
// outstanding, issuing the next one as each reply arrives, until src ends
// or the clock passes stopAt (0 = never), then drains. Every reply is
// checked against the oracle; completions inside win are timed. With
// traceOn, one client span per request is recorded.
func drive(c *server.Client, src source, depth int, o *oracle, win window, stopAt int64, traceOn bool, reqBase uint64) (*connResult, error) {
	res := &connResult{}
	ring := make([]pending, depth)
	head, n := 0, 0
	issue := func() (bool, error) {
		if stopAt > 0 && now() >= stopAt {
			return false, nil
		}
		get, k, ok := src.next()
		if !ok {
			return false, nil
		}
		p := pending{get: get, key: k}
		var op server.Op
		if get {
			p.seq = o.acked[k].Load()
			op = server.Op{Kind: server.OpGet, Key: uint64(k)}
		} else {
			p.seq = o.sent[k].Add(1)
			op = server.Op{Kind: server.OpSet, Key: uint64(k), Arg1: value(k, p.seq)}
		}
		p.sent = now()
		if err := c.SendOp(op); err != nil {
			return false, err
		}
		ring[(head+n)%depth] = p
		n++
		res.attempted++
		return true, nil
	}
	open := true
	for open && n < depth {
		var err error
		if open, err = issue(); err != nil {
			return res, err
		}
	}
	for n > 0 {
		r, err := c.RecvResult()
		if err != nil {
			return res, err
		}
		done := now()
		p := ring[head]
		head = (head + 1) % depth
		n--
		ok := true
		if p.get {
			seq := r.Val & (1<<seqBits - 1)
			ok = r.Status == server.StatusValue && r.Val>>seqBits == uint64(p.key) &&
				seq >= p.seq && seq <= o.sent[p.key].Load()
		} else {
			ok = r.Status == server.StatusOK
			if ok {
				o.acked[p.key].Store(p.seq)
			}
		}
		if !ok {
			res.failed++
		}
		if win.in(done) && win.in(p.sent) {
			if p.get {
				res.get.add(done, done-p.sent)
			} else {
				res.set.add(done, done-p.sent)
			}
		}
		if traceOn && len(res.spans) < maxClientSpans {
			name := "client.set"
			if p.get {
				name = "client.get"
			}
			res.spans = append(res.spans, span{Name: name, Start: p.sent, End: done, Parent: -1, Req: reqBase + uint64(res.attempted-int64(n))})
		}
		if open {
			if open, err = issue(); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// runConns drives one source per client concurrently and merges the tallies.
func runConns(clients []*server.Client, srcs []source, depths []int, o *oracle, win window, stopAt int64, traceOn bool) (*connResult, error) {
	type out struct {
		r   *connResult
		err error
	}
	ch := make(chan out, len(clients))
	for i := range clients {
		go func(i int) {
			r, err := drive(clients[i], srcs[i], depths[i], o, win, stopAt, traceOn, uint64(i)<<48)
			ch <- out{r, err}
		}(i)
	}
	total := &connResult{}
	var firstErr error
	for range clients {
		x := <-ch
		if x.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("client: %w", x.err)
		}
		if x.r != nil {
			total.merge(x.r)
		}
	}
	return total, firstErr
}

func (t *connResult) merge(r *connResult) {
	t.get.merge(&r.get)
	t.set.merge(&r.set)
	t.attempted += r.attempted
	t.failed += r.failed
	t.spans = append(t.spans, r.spans...)
}
