package main

import (
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"time"

	"specpmt"
	"specpmt/internal/obs"
	"specpmt/internal/repl"
	"specpmt/internal/server"
)

const (
	engine  = "SpecSPMT"
	profile = "optane-adr"
	shards  = 4
	// preloadDepth is the outstanding SETs per preload connection.
	preloadDepth = 128
	// warmupOpsPerSlot is the op count each workload connection runs
	// before the timed window, and again before each repeat crash, per
	// outstanding request: enough to fill the version chains and settle
	// the pipeline-depth tuner.
	warmupOpsPerSlot = 200
	warmupMinOps     = 1000
)

// env is one running system under test: the server (the primary on
// replicated-ack), the optional replica, and the workload's clients.
type env struct {
	w       workload
	seed    int64
	srv     *server.Server
	addr    string
	primary *repl.Primary
	repSrv  *server.Server
	replica *repl.Replica
	clients []*server.Client
	oracle  *oracle
	gens    []*gen
}

func newServer(w workload, readOnly bool) (*server.Server, string, error) {
	srv, err := server.New(server.Config{
		Engine:        engine,
		Profile:       profile,
		Shards:        shards,
		PipelineDepth: w.depth,
		ReadOnly:      readOnly,
	})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// setup starts the system, preloads every key through pipelined binary
// windows, and warms the workload up. Its wall time is setup_s.
func setup(w workload, seed int64) (*env, error) {
	e := &env{w: w, seed: seed, oracle: newOracle(w.keys)}
	srv, addr, err := newServer(w, false)
	if err != nil {
		return nil, err
	}
	e.srv, e.addr = srv, addr
	if w.replicated {
		if err := e.startReplica(); err != nil {
			e.close()
			return nil, err
		}
	}
	if err := e.preload(addr); err != nil {
		e.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	for i := range w.conns {
		e.gens = append(e.gens, newGen(w, i, seed))
	}
	if err := e.dial(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.warm(); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// dial opens the workload's connections.
func (e *env) dial() error {
	for _, cs := range e.w.conns {
		c, err := server.DialProto(e.addr, 5*time.Second, cs.proto)
		if err != nil {
			return err
		}
		e.clients = append(e.clients, c)
	}
	return nil
}

// warm runs the workload's own traffic, untimed, for a fixed op count per
// connection.
func (e *env) warm() error {
	srcs := make([]source, len(e.w.conns))
	for i, cs := range e.w.conns {
		srcs[i] = &limit{src: e.gens[i], n: max(warmupMinOps, warmupOpsPerSlot*cs.window)}
	}
	r, err := e.run(srcs, window{}, 0, false)
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("%d of %d ops failed", r.failed, r.attempted)
	}
	return err
}

// startReplica attaches a primary in ack mode and one read-only replica,
// and returns once the replica is streaming.
func (e *env) startReplica() error {
	e.primary = repl.NewPrimary(e.srv, repl.PrimaryOptions{Sync: repl.SyncAck})
	if err := e.primary.Start("127.0.0.1:0"); err != nil {
		return err
	}
	repSrv, _, err := newServer(e.w, true)
	if err != nil {
		return err
	}
	e.repSrv = repSrv
	if e.replica, err = repl.NewReplica(repSrv, e.primary.Addr().String(), repl.ReplicaOptions{}); err != nil {
		return err
	}
	e.replica.Start()
	deadline := time.Now().Add(30 * time.Second)
	for gatherStats(e.srv.Registry())["repl_streaming"] < 1 {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica never started streaming")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// preload writes sequence 1 to every key over two binary connections,
// each owning half the keys.
func (e *env) preload(addr string) error {
	var clients []*server.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	srcs := make([]source, 2)
	for i := range srcs {
		c, err := server.DialProto(addr, 5*time.Second, "binary")
		if err != nil {
			return err
		}
		clients = append(clients, c)
		var keys []int
		for k := i; k < e.w.keys; k += 2 {
			keys = append(keys, k)
		}
		srcs[i] = &sweep{keys: keys}
	}
	r, err := runConns(clients, srcs, []int{preloadDepth, preloadDepth}, e.oracle, window{}, 0, false)
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("%d of %d SETs failed", r.failed, r.attempted)
	}
	return err
}

// run drives the workload's clients with the given sources.
func (e *env) run(srcs []source, win window, stopAt int64, traceOn bool) (*connResult, error) {
	depths := make([]int, len(e.w.conns))
	for i, cs := range e.w.conns {
		depths[i] = cs.window
	}
	return runConns(e.clients, srcs, depths, e.oracle, win, stopAt, traceOn)
}

// spaceEvery is how often the untraced window samples space_amp.
const spaceEvery = 250 * time.Millisecond

// timed runs the workload for d and returns the window's tally. With
// sampleSpace it also samples space_amp every spaceEvery, at a quiesced
// point of every shard worker (the log's live bytes saw-tooth between
// reclaim cycles, so one sample at the window's end would be noise).
func (e *env) timed(d time.Duration, traceOn, sampleSpace bool) (*connResult, []float64, error) {
	srcs := make([]source, len(e.gens))
	for i, g := range e.gens {
		srcs[i] = g
	}
	start := now()
	win := window{start: start, end: start + int64(d)}
	var space []float64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if !sampleSpace {
			return
		}
		tick := time.NewTicker(spaceEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				e.srv.Freeze(func() {
					c := e.srv.Counters()
					space = append(space, spaceAmp(e.srv.Pool().DataHeap().Footprint(), c.LogBytesLive, e.w.keys))
				})
			}
		}
	}()
	r, err := e.run(srcs, win, win.end, traceOn)
	close(done)
	<-sampled
	return r, space, err
}

// spaceAmp is (data-heap footprint + live log) / (live keys × 16 B).
func spaceAmp(footprint, liveLog int64, keys int) float64 {
	return float64(footprint+liveLog) / float64(keys*16)
}

func (e *env) closeClients() {
	for _, c := range e.clients {
		c.Close()
	}
	e.clients = nil
}

func (e *env) detachReplica() {
	if e.replica != nil {
		e.replica.Close()
		e.replica = nil
	}
	if e.primary != nil {
		e.primary.Close()
		e.primary = nil
	}
}

func (e *env) close() {
	e.closeClients()
	e.detachReplica()
	if e.repSrv != nil {
		e.repSrv.Close()
		e.repSrv = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	debug.FreeOSMemory()
}

// snapshot is the system's counters at a quiesced point: no request in
// flight and every shard worker parked.
type snapshot struct {
	c       specpmt.Counters
	modelNs int64
	stats   map[string]uint64
	hists   map[string]*obs.HistSnapshot
	replica map[string]uint64
}

func (e *env) snapshot() (*snapshot, error) {
	s := &snapshot{}
	if err := e.srv.Freeze(func() {
		s.c = e.srv.Counters()
		s.modelNs = e.srv.Pool().ModeledTime()
	}); err != nil {
		return nil, err
	}
	s.stats, s.hists = gather(e.srv.Registry())
	if e.repSrv != nil {
		s.replica = gatherStats(e.repSrv.Registry())
	}
	return s, nil
}

// gather collects a registry's scalar STATS fields and its histograms,
// merged across shards.
func gather(r *obs.Registry) (map[string]uint64, map[string]*obs.HistSnapshot) {
	stats := map[string]uint64{}
	hists := map[string]*obs.HistSnapshot{}
	for _, sm := range r.Gather() {
		if sm.Hist != nil {
			h := hists[sm.Family]
			if h == nil {
				h = &obs.HistSnapshot{}
				hists[sm.Family] = h
			}
			for i := range h.Counts {
				h.Counts[i] += sm.Hist.Counts[i]
			}
			h.Count += sm.Hist.Count
			h.Sum += sm.Hist.Sum
			continue
		}
		if sm.Stat != "" {
			stats[sm.Stat] = sm.Value
		}
	}
	return stats, hists
}

func gatherStats(r *obs.Registry) map[string]uint64 {
	s, _ := gather(r)
	return s
}

// gateResult is the outcome of the correctness gate.
type gateResult struct {
	readback   *connResult
	drainMs    float64
	lagEnd     uint64
	recoveries []float64 // wall seconds of each Crash: power failure, recovery, SelfCheck
	err        error
}

// wrongOracle selects a deliberate oracle fault, for the self-test.
type wrongOracle int

const (
	rightOracle wrongOracle = iota
	// wrongValue corrupts one acknowledged value before the gate starts:
	// the replica check or the read-back must catch it.
	wrongValue
	// staleRecovered hands the last crash's CheckRecovered a stale value for
	// one key, after every other check has passed.
	staleRecovered
)

// crashCycles is how many power failures the gate recovers from; recovery_s
// is their median. The first cycle also pays for the first touch of the
// simulated device's persisted image.
const crashCycles = 15

// gate checks the system against the oracle: it waits for the replica to
// catch up and compares it, reads every key back, then power-fails and
// recovers the server crashCycles times, checking after each crash that
// every acknowledged write survived. Before each repeat crash the
// workload's own connections run its own traffic again (as in the
// warm-up), so every crash recovers the log that traffic leaves behind.
// The replica is detached before the first crash.
func (e *env) gate(wrong wrongOracle) *gateResult {
	g := &gateResult{}
	expect := e.oracle.expect()
	if wrong == wrongValue {
		expect[0] ^= 1
		e.oracle.acked[0].Add(1)
		e.oracle.sent[0].Add(1)
	}
	if e.replica != nil {
		g.lagEnd = e.replica.Lag()
		t0 := time.Now()
		deadline := t0.Add(30 * time.Second)
		for e.replica.AppliedLSN() < e.primary.Log().Head() {
			if time.Now().After(deadline) {
				g.err = fmt.Errorf("replica stuck at lsn %d, primary head %d", e.replica.AppliedLSN(), e.primary.Log().Head())
				return g
			}
			time.Sleep(100 * time.Microsecond)
		}
		g.drainMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err := e.repSrv.CheckRecovered(expect); err != nil {
			g.err = fmt.Errorf("replica diverged from the oracle: %w", err)
			return g
		}
	}
	var err error
	if g.readback, err = e.readBack(); err != nil {
		g.err = err
		return g
	}
	if g.readback.failed > 0 {
		g.err = fmt.Errorf("read-back: %d of %d keys differ from the oracle", g.readback.failed, g.readback.attempted)
		return g
	}
	e.closeClients()
	e.detachReplica()
	for i := 0; i < crashCycles; i++ {
		if i > 0 {
			err := e.dial()
			if err == nil {
				err = e.warm()
			}
			e.closeClients()
			if err != nil {
				g.err = fmt.Errorf("traffic before crash %d: %w", i+1, err)
				return g
			}
			expect = e.oracle.expect()
		}
		if wrong == staleRecovered && i == crashCycles-1 {
			expect[0] = value(0, e.oracle.acked[0].Load()-1)
		}
		// Crash needs a quiesced server: an empty Freeze orders every
		// worker's last write before it.
		if err := e.srv.Freeze(func() {}); err != nil {
			g.err = err
			return g
		}
		runtime.GC()
		t0 := time.Now()
		if err := e.srv.Crash(uint64(e.seed)<<8 + uint64(i)); err != nil {
			g.err = fmt.Errorf("crash recovery: %w", err)
			return g
		}
		g.recoveries = append(g.recoveries, time.Since(t0).Seconds())
		if err := e.srv.CheckRecovered(expect); err != nil {
			g.err = fmt.Errorf("acknowledged writes lost in a power failure: %w", err)
			return g
		}
	}
	return g
}

// readBack GETs every key once over two pipelined binary connections and
// checks each reply against the oracle.
func (e *env) readBack() (*connResult, error) {
	var clients []*server.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	srcs := make([]source, 2)
	for i := range srcs {
		c, err := server.DialProto(e.addr, 5*time.Second, "binary")
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
		var keys []int
		for k := i; k < e.w.keys; k += len(srcs) {
			keys = append(keys, k)
		}
		srcs[i] = &sweep{get: true, keys: keys}
	}
	return runConns(clients, srcs, []int{preloadDepth, preloadDepth}, e.oracle, window{}, 0, false)
}
