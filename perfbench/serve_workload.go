package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/index"
	"planarsi/internal/planarity"
	"planarsi/internal/serve"
)

// serveEdits: the daemon's handler on a loopback listener in this
// process, with two closed-loop keep-alive clients sending the load
// generator's mix (decide 60 / count 25 / find 15, half C4 hits and half
// C3 misses; see mixRound) at a grid. Every editEvery-th operation of client 0 removes
// a random edge or re-adds a removed one, so later reads re-prepare
// bands. Only this workload runs the scheduler, HTTP and JSON, and
// Index.ApplyEdits.
type serveEdits struct {
	side   int
	edges  [][2]int32
	edgeID map[[2]int32]int
	rngs   []*rand.Rand
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	name   string
	setups int

	// History of the host, one state per epoch, so a read is checked
	// against every epoch live while it ran: committed is the last epoch
	// whose edit was answered, started the epoch of the edit in flight.
	mu        sync.Mutex
	states    []gridState
	committed atomic.Int64
	started   atomic.Int64
	removed   []int
	ops       []int
	plans     [][]read
	editRes   []index.EditResult
	// wantC3 is the oracle's answer for a triangle; tests plant a wrong one.
	wantC3 bool

	acc map[*phase]*serveAcc
}

// gridState is the host at one epoch: which grid edges are present and
// how many unit squares are intact.
type gridState struct {
	present []bool
	squares int
}

// serveAcc is one phase's counter deltas and traced pairs.
type serveAcc struct {
	sched0, sched1 serve.SchedulerStats
	memo0, memo1   map[string]index.MemoStats
	edits0, edits1 int
	queries        int
	overhead       time.Duration
	pairs          int
	mismatch       int
	emP, em1       int64
	replayEm       int64
	replays        int
	setupBands     int
	width          int
}

// editEvery is the op period of client 0's edits; maxRemoved bounds how
// far the host drifts from the full grid.
const (
	editEvery  = 10
	maxRemoved = 8
)

func newServeEdits(cfg config, rng *rand.Rand) workload {
	side := 8
	if cfg.tiny {
		side = 4
	}
	w := &serveEdits{side: side, edges: graph.Grid(side, side).Edges(),
		edgeID: make(map[[2]int32]int), ops: make([]int, 2), plans: make([][]read, 2),
		acc: make(map[*phase]*serveAcc)}
	for i, e := range w.edges {
		w.edgeID[edgeKey(e[0], e[1])] = i
	}
	for c := range 2 {
		w.rngs = append(w.rngs, rand.New(rand.NewPCG(rng.Uint64(), uint64(c))))
	}
	return w
}

// read is one planned query of a client.
type read struct {
	kind string
	h    *graph.Graph
}

// mixRound returns one round of the load generator's mix in a random
// order: 40 reads, decide 60% / count 25% / find 15%, each half C4 and
// half C3. Whole rounds keep the mix exact whatever the seed.
func mixRound(rng *rand.Rand) []read {
	var rs []read
	for _, k := range []struct {
		kind string
		n    int
	}{{"decide", 12}, {"count", 5}, {"find", 3}} {
		for range k.n {
			rs = append(rs, read{k.kind, graph.Cycle(4)}, read{k.kind, graph.Cycle(3)})
		}
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

func (w *serveEdits) callers() int { return 2 }
func (w *serveEdits) round() int   { return 1 }

// start boots the server on a loopback listener.
func (w *serveEdits) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = serve.New(serve.Options{Pipeline: programOptions(),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln)
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return nil
}

func (w *serveEdits) close() {
	if w.hs == nil {
		return
	}
	w.client.CloseIdleConnections()
	_ = w.hs.Close()
	<-w.served
}

// setup registers the grid under a fresh name and asks one question per
// pattern shape, which prepares its covers.
func (w *serveEdits) setup() error {
	if w.srv == nil {
		if err := w.start(); err != nil {
			return err
		}
	}
	if w.name != "" {
		if _, err := w.post("DELETE", "/graphs/"+w.name, nil, nil); err != nil {
			return err
		}
	}
	w.setups++
	w.name = fmt.Sprintf("grid%d", w.setups)
	wire := serve.GraphJSON{N: w.side * w.side}
	for _, e := range w.edges {
		wire.Edges = append(wire.Edges, serve.Edge(e))
	}
	if _, err := w.post("POST", "/graphs/"+w.name, wire, nil); err != nil {
		return err
	}
	for _, h := range []*graph.Graph{graph.Cycle(4), graph.Cycle(3)} {
		var resp serve.QueryResponse
		if _, err := w.post("POST", "/decide", w.query(h), &resp); err != nil {
			return err
		}
	}
	present := make([]bool, len(w.edges))
	for i := range present {
		present[i] = true
	}
	w.states = []gridState{{present, (w.side - 1) * (w.side - 1)}}
	w.removed = nil
	w.committed.Store(0)
	w.started.Store(0)
	return nil
}

func (w *serveEdits) query(h *graph.Graph) serve.QueryRequest {
	wire := serve.WireGraph(h)
	return serve.QueryRequest{Graph: w.name, Pattern: &wire}
}

// post sends one request and decodes a 2xx JSON answer into out.
func (w *serveEdits) post(method, path string, body, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return d, nil
}

// check answers C4 and C3 on the fresh host: 8 maps per unit square, and
// no triangle.
func (w *serveEdits) check() error {
	for _, h := range []*graph.Graph{graph.Cycle(4), graph.Cycle(3)} {
		for _, kind := range []string{"decide", "count", "find"} {
			var resp serve.QueryResponse
			if _, err := w.post("POST", "/"+kind, w.query(h), &resp); err != nil {
				return err
			}
			if err := w.verify(kind, h, resp, 0, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// verify accepts an answer that is right at some epoch in [lo, hi].
func (w *serveEdits) verify(kind string, h *graph.Graph, resp serve.QueryResponse, lo, hi int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for e := lo; e <= hi && int(e) < len(w.states); e++ {
		if w.rightAt(w.states[e], kind, h, resp) {
			return nil
		}
	}
	return fmt.Errorf("serve-edits: %s of C%d (found=%v count=%v occ=%v) is wrong at every epoch in [%d, %d]",
		kind, h.N(), resp.Found, resp.Count, resp.Occurrence, lo, hi)
}

func (w *serveEdits) rightAt(st gridState, kind string, h *graph.Graph, resp serve.QueryResponse) bool {
	if h.N() == 3 {
		want := w.wantC3
		switch kind {
		case "count":
			return resp.Count != nil && (*resp.Count > 0) == want
		case "find":
			return (resp.Occurrence != nil) == want && resp.Found == want
		}
		return resp.Found == want
	}
	switch kind {
	case "count":
		return resp.Count != nil && *resp.Count == 8*st.squares
	case "find":
		if resp.Occurrence == nil {
			return st.squares == 0
		}
		return w.isCycle(st, h, resp.Occurrence)
	}
	return resp.Found == (st.squares > 0)
}

// isCycle reports whether occ maps h's edges injectively onto edges
// present in st.
func (w *serveEdits) isCycle(st gridState, h *graph.Graph, occ core.Occurrence) bool {
	if len(occ) != h.N() {
		return false
	}
	seen := make(map[int32]bool)
	for _, v := range occ {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	for _, e := range h.Edges() {
		i, ok := w.edgeID[edgeKey(occ[e[0]], occ[e[1]])]
		if !ok || !st.present[i] {
			return false
		}
	}
	return true
}

func edgeKey(u, v int32) [2]int32 { return [2]int32{min(u, v), max(u, v)} }

// squares counts the intact unit squares.
func (w *serveEdits) squares(present []bool) int {
	n := 0
	s := int32(w.side)
	for r := int32(0); r+1 < s; r++ {
		for c := int32(0); c+1 < s; c++ {
			v := r*s + c
			if present[w.edgeID[edgeKey(v, v+1)]] && present[w.edgeID[edgeKey(v, v+s)]] &&
				present[w.edgeID[edgeKey(v+s, v+s+1)]] && present[w.edgeID[edgeKey(v+1, v+s+1)]] {
				n++
			}
		}
	}
	return n
}

func (w *serveEdits) op(c int, tr *tracer) (sample, error) {
	rng := w.rngs[c]
	w.ops[c]++
	if c == 0 && w.ops[c]%editEvery == 0 {
		return w.edit(rng)
	}
	if len(w.plans[c]) == 0 {
		w.plans[c] = mixRound(rng)
	}
	r := w.plans[c][0]
	w.plans[c] = w.plans[c][1:]
	kind, h := r.kind, relabel(r.h, rng)
	lo := w.committed.Load()
	var resp serve.QueryResponse
	var d time.Duration
	var err error
	if tr == nil {
		d, err = w.post("POST", "/"+kind, w.query(h), &resp)
	} else {
		d, err = w.tracedQuery(tr, kind, h, &resp)
	}
	hi := w.started.Load()
	if err != nil {
		return sample{}, err
	}
	if err := w.verify(kind, h, resp, lo, hi); err != nil {
		return sample{}, err
	}
	return sample{dur: d}, nil
}

// tracedQuery times the HTTP round trip under a query root, then a direct
// Scheduler.Submit of the same decide or count under a replay root: their
// difference is what HTTP and JSON add.
func (w *serveEdits) tracedQuery(tr *tracer, kind string, h *graph.Graph, resp *serve.QueryResponse) (time.Duration, error) {
	root := tr.begin(rootQuery, -1, -1)
	id := tr.begin("serve.http", root, -1)
	_, err := w.post("POST", "/"+kind, w.query(h), resp)
	tr.end(id)
	tr.end(root)
	d := tr.dur(root)
	if err != nil || kind == "find" {
		return d, err
	}
	bk := serve.KindDecide
	if kind == "count" {
		bk = serve.KindCount
	}
	e := w.srv.Registry().Acquire(w.name)
	if e == nil {
		return d, errors.New("serve-edits: host graph not registered")
	}
	defer w.srv.Registry().Release(e)
	rr := tr.begin(rootReplay, -1, -1)
	sid := tr.begin("serve.submit", rr, -1)
	_, serr := w.srv.Scheduler().Submit(context.Background(), e, bk, h)
	tr.end(sid)
	tr.end(rr)
	if serr != nil {
		return d, serr
	}
	w.mu.Lock()
	a := w.phaseAcc(tr)
	a.overhead += d - tr.dur(sid)
	a.pairs++
	w.mu.Unlock()
	return d, nil
}

// phaseAcc finds the accumulator of the traced phase owning tr; w.mu is held.
func (w *serveEdits) phaseAcc(tr *tracer) *serveAcc {
	for ph, a := range w.acc {
		if ph.tr == tr {
			return a
		}
	}
	return &serveAcc{}
}

// edit removes a random present edge or re-adds a removed one.
func (w *serveEdits) edit(rng *rand.Rand) (sample, error) {
	w.mu.Lock()
	cur := w.states[len(w.states)-1]
	present := append([]bool(nil), cur.present...)
	var req serve.EditRequest
	req.RequirePlanar = true
	if len(w.removed) > 0 && (len(w.removed) >= maxRemoved || rng.IntN(2) == 0) {
		j := rng.IntN(len(w.removed))
		i := w.removed[j]
		w.removed = append(w.removed[:j], w.removed[j+1:]...)
		present[i] = true
		req.Add = []serve.Edge{serve.Edge(w.edges[i])}
	} else {
		i := rng.IntN(len(w.edges))
		for !present[i] {
			i = rng.IntN(len(w.edges))
		}
		w.removed = append(w.removed, i)
		present[i] = false
		req.Remove = []serve.Edge{serve.Edge(w.edges[i])}
	}
	w.states = append(w.states, gridState{present, w.squares(present)})
	epoch := int64(len(w.states) - 1)
	w.mu.Unlock()
	w.started.Store(epoch)
	var resp serve.EditResponse
	d, err := w.post("POST", "/graphs/"+w.name+"/edges", req, &resp)
	if err != nil {
		return sample{}, err
	}
	if int64(resp.Epoch) != epoch {
		return sample{}, fmt.Errorf("serve-edits: edit answered epoch %d, want %d", resp.Epoch, epoch)
	}
	w.committed.Store(epoch)
	w.mu.Lock()
	w.editRes = append(w.editRes, resp.EditResult)
	w.mu.Unlock()
	return sample{dur: d, edit: true}, nil
}

func (w *serveEdits) entryIndex() *index.Index {
	e := w.srv.Registry().Acquire(w.name)
	defer w.srv.Registry().Release(e)
	return e.Index()
}

func (w *serveEdits) memo() map[string]index.MemoStats {
	out := make(map[string]index.MemoStats)
	for _, ms := range w.entryIndex().MemoStats() {
		out[ms.Class] = ms
	}
	return out
}

// phaseStart snapshots the counters; before a traced phase it also
// replays the host's preparation layer by layer, probes find witnesses
// and DP work at full parallelism and at 1, and at parallelism 1
// replays the probes' band DP.
func (w *serveEdits) phaseStart(ph *phase) error {
	a := &serveAcc{sched0: w.srv.Scheduler().Stats(), memo0: w.memo(), edits0: len(w.editRes)}
	w.mu.Lock()
	w.acc[ph] = a
	w.mu.Unlock()
	if ph.tr == nil {
		return nil
	}
	ix := w.entryIndex()
	g := ix.Graph()
	a.setupBands, a.width = replayPrepare(ph.tr, g, programOptions(), [][2]int{{4, 2}, {3, 1}})
	// Every edit tests the edited host for planarity.
	root := ph.tr.begin(rootSetup, -1, -1)
	id := ph.tr.begin("planarity.embed", root, -1)
	_, err := planarity.Embed(g)
	ph.tr.end(id)
	ph.tr.end(root)
	if err != nil {
		return err
	}
	probes := []*graph.Graph{graph.Cycle(4), graph.Cycle(3)}
	a.mismatch, a.emP, a.em1, err = probeWitnesses(ix, g, probes)
	if err != nil {
		return err
	}
	if ph.p == 1 {
		for _, h := range probes {
			a.replayEm += replayPMDAG(ph.tr, ix, g, h, programOptions(), -1, true)
			a.replays++
		}
	}
	return nil
}

func (w *serveEdits) phaseEnd(ph *phase) {
	w.mu.Lock()
	a := w.acc[ph]
	a.edits1 = len(w.editRes)
	w.mu.Unlock()
	a.sched1 = w.srv.Scheduler().Stats()
	a.memo1 = w.memo()
	a.queries = len(ph.queries())
}

func (w *serveEdits) layerMetrics(r *traceReport) map[string]float64 {
	m := make(map[string]float64)
	for _, x := range []struct {
		sfx string
		ph  *phase
	}{{"", r.traced}, {".p1", r.traced1}} {
		a, tr := w.acc[x.ph], x.ph.tr
		m["estc.busy_ms"+x.sfx] = tr.perRootMS("estc.cluster", rootSetup)
		m["cover.busy_ms"+x.sfx] = tr.perRootMS("cover.cut", rootSetup)
		m["treedecomp.busy_ms"+x.sfx] = tr.perRootMS("treedecomp.build", rootSetup)
		m["planarity.embed_ms"+x.sfx] = tr.perRootMS("planarity.embed", rootSetup)
		if a.pairs > 0 {
			m["serve.http_overhead_ms"+x.sfx] = a.overhead.Seconds() * 1e3 / float64(a.pairs)
		}
	}
	for _, x := range []struct {
		sfx string
		ph  *phase
	}{{"", r.untraced}, {".p1", r.untraced1}} {
		a := w.acc[x.ph]
		built := a.memo1["cover"].BuildSeconds - a.memo0["cover"].BuildSeconds
		m["index.prepared_ms"+x.sfx] = built * 1e3 / float64(max(a.queries, 1))
		if n := a.edits1 - a.edits0; n > 0 {
			m["index.apply_edits_ms"+x.sfx] = (a.memo1["epoch"].BuildSeconds - a.memo0["epoch"].BuildSeconds) * 1e3 / float64(n)
		}
		m["serve.edit_p50_ms"+x.sfx] = ms(quantile(x.ph.edits(), 0.5))
		if b := a.sched1.Batches - a.sched0.Batches; b > 0 {
			m["serve.req_per_batch"+x.sfx] = float64(a.sched1.Requests-a.sched0.Requests) / float64(b)
		}
	}
	aP, a1 := w.acc[r.traced], w.acc[r.traced1]
	m["serve.avg_wait_us"] = w.srv.Scheduler().Stats().AvgWaitMicros
	m["cover.bands"] = float64(aP.setupBands)
	m["treedecomp.max_width"] = float64(aP.width)
	m["core.witness_mismatch"] = float64(aP.mismatch + a1.mismatch)
	if aP.emP > 0 {
		m["core.useful_frac"] = float64(aP.em1) / float64(aP.emP)
	}
	m["pmdag.busy_ms"] = r.traced1.tr.selfMS("pmdag.run") / float64(max(a1.replays, 1))
	m["pmdag.emissions_per_query"] = float64(a1.replayEm) / float64(max(a1.replays, 1))
	w.mu.Lock()
	var kept, total, kept1, total1 int
	for i, er := range w.editRes {
		if i == 0 {
			kept1, total1 = er.Bands.Kept, er.Bands.Kept+er.Bands.Rebuilt
			continue
		}
		kept += er.Bands.Kept
		total += er.Bands.Kept + er.Bands.Rebuilt
	}
	w.mu.Unlock()
	if total > 0 {
		m["index.bands_kept_frac"] = float64(kept) / float64(total)
	}
	if total1 > 0 {
		m["index.bands_kept_frac_first"] = float64(kept1) / float64(total1)
	}
	indexMetrics(m, w.entryIndex())
	return m
}
