package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/index"
	"planarsi/internal/match"
	"planarsi/internal/naive"
	"planarsi/internal/obs"
	"planarsi/internal/par"
)

// hostSeed generates the random host graphs. It is fixed: the workload
// seed varies what is asked of a host, not the host itself.
const hostSeed = 20

// relabel returns h with its vertex ids permuted and its edges listed in
// a random order.
func relabel(h *graph.Graph, rng *rand.Rand) *graph.Graph {
	perm := rng.Perm(h.N())
	edges := h.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i, e := range edges {
		edges[i] = [2]int32{int32(perm[e[0]]), int32(perm[e[1]])}
	}
	return graph.FromEdges(h.N(), edges)
}

// motifs are the small patterns of the hit workload, all present in its
// host: C4, the 4-star, the paw, the diamond, C3 and P3.
func motifs() []*graph.Graph {
	paw := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	diamond := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {1, 3}, {2, 3}})
	return []*graph.Graph{graph.Cycle(4), graph.Star(4), paw, diamond, graph.Cycle(3), graph.Path(3)}
}

// shapeOf is a pattern's (size, diameter), the key an Index prewarms.
func shapeOf(h *graph.Graph) [2]int { return [2]int{h.N(), graph.Diameter(h)} }

// indexAcc accumulates one traced phase of an Index workload.
type indexAcc struct {
	calls      int
	emissions  int64
	runs       int
	bands      int
	bandBusy   time.Duration
	wall       time.Duration
	replayEm   int64
	replays    int
	setupBands int
	width      int
	mismatch   int
}

// indexBench is the state the two Index workloads share: a warm Index
// over a fixed host, one caller, and the traced-phase accounting.
type indexBench struct {
	rng    *rand.Rand
	g      *graph.Graph
	shapes [][2]int
	ix     *index.Index
	probes []*graph.Graph
	next   int
	acc    map[*tracer]*indexAcc
}

func (b *indexBench) setup() error {
	b.ix = index.New(b.g, programOptions())
	for _, sh := range b.shapes {
		b.ix.Prewarm(sh[0], sh[1])
	}
	return nil
}

func (b *indexBench) callers() int { return 1 }
func (b *indexBench) round() int   { return 1 }
func (b *indexBench) close()       {}

// phaseStart, before a traced phase, replays the Index's preparation
// layer by layer and compares the probe patterns' find witnesses at full
// parallelism and at 1.
func (b *indexBench) phaseStart(ph *phase) error {
	if ph.tr == nil {
		return nil
	}
	a := &indexAcc{}
	b.acc[ph.tr] = a
	a.setupBands, a.width = replayPrepare(ph.tr, b.g, programOptions(), b.shapes)
	var err error
	a.mismatch, _, _, err = probeWitnesses(b.ix, b.g, b.probes)
	return err
}

func (b *indexBench) phaseEnd(*phase) {}

// canon times the canonical key of each pattern under its own replay
// root, the work the Index's compiled-pattern cache saves on a hit.
func canon(tr *tracer, q int, hs ...*graph.Graph) {
	root := tr.begin(rootReplay, -1, q)
	for _, h := range hs {
		id := tr.begin("match.canon", root, q)
		match.CanonicalKey(h)
		tr.end(id)
	}
	tr.end(root)
}

// traced runs call, the real API call, under a "query" root with the
// program's recorder and cost counter attached, then imports the
// recorder's band and prepare spans. It returns the query's duration.
func (b *indexBench) traced(tr *tracer, q int, timedSrc bool, call func(opt core.Options, ctx context.Context, parent int) error) (time.Duration, error) {
	rec := obs.NewRecorder(1 << 22)
	recStart := time.Now()
	cc := new(obs.CostCounter)
	opt := programOptions()
	opt.Trace, opt.Cost = rec, cc
	ctx := obs.WithCost(obs.WithRecorder(context.Background(), rec), cc)
	root := tr.begin(rootQuery, -1, q)
	err := call(opt, ctx, root)
	tr.end(root)
	prog := tr.importProgram(rec, recStart, root, q, !timedSrc)
	d := tr.dur(root)
	a := b.acc[tr]
	a.calls++
	a.emissions += cc.Snapshot().Emissions
	a.bandBusy += prog.bandBusy
	a.runs += prog.runs
	a.bands += prog.bands
	a.wall += d
	return d, err
}

// replay re-runs the path-DAG engine band by band for the patterns of
// one query after it was traced at parallelism 1.
func (b *indexBench) replay(tr *tracer, q int, untilHit bool, hs ...*graph.Graph) {
	if par.Parallelism() != 1 {
		return
	}
	var em int64
	for _, h := range hs {
		em += replayPMDAG(tr, b.ix, b.g, h, programOptions(), q, untilHit)
	}
	a := b.acc[tr]
	a.replayEm += em
	a.replays++
}

// layerMetrics reports the per-layer values both Index workloads share.
func (b *indexBench) layerMetrics(r *traceReport) map[string]float64 {
	m := make(map[string]float64)
	aP, a1 := b.acc[r.traced.tr], b.acc[r.traced1.tr]
	for _, x := range []struct {
		sfx string
		ph  *phase
		a   *indexAcc
	}{{"", r.traced, aP}, {".p1", r.traced1, a1}} {
		tr, a := x.ph.tr, x.a
		m["estc.busy_ms"+x.sfx] = tr.perRootMS("estc.cluster", rootSetup)
		m["cover.busy_ms"+x.sfx] = tr.perRootMS("cover.cut", rootSetup)
		m["treedecomp.busy_ms"+x.sfx] = tr.perRootMS("treedecomp.build", rootSetup)
		m["index.prepared_ms"+x.sfx] = tr.perRootMS("index.prepared", rootQuery)
		calls := float64(max(a.calls, 1))
		m["core.bands_per_query"+x.sfx] = float64(a.bands) / calls
		m["core.runs_per_query"+x.sfx] = float64(a.runs) / calls
		if a.wall > 0 {
			m["par.efficiency"+x.sfx] = a.bandBusy.Seconds() / (a.wall.Seconds() * float64(x.ph.p))
		}
	}
	m["cover.bands"] = float64(aP.setupBands)
	m["treedecomp.max_width"] = float64(aP.width)
	m["pmdag.busy_ms"] = r.traced1.tr.selfMS("pmdag.run") / float64(max(a1.replays, 1))
	m["pmdag.emissions_per_query"] = float64(a1.replayEm) / float64(max(a1.replays, 1))
	m["match.canon_us"] = r.traced.tr.perSpanUS("match.canon")
	if aP.calls > 0 && a1.calls > 0 && aP.emissions > 0 {
		m["core.useful_frac"] = (float64(a1.emissions) / float64(a1.calls)) / (float64(aP.emissions) / float64(aP.calls))
	}
	m["core.witness_mismatch"] = float64(aP.mismatch + a1.mismatch)
	indexMetrics(m, b.ix)
	return m
}

// probeWitnesses finds each probe pattern at full parallelism
// (GOMAXPROCS) and at parallelism 1 on the same index state. It verifies
// every witness and returns how many differ between the two, with the DP
// emissions of each side.
func probeWitnesses(ix *index.Index, g *graph.Graph, probes []*graph.Graph) (mismatch int, emP, em1 int64, err error) {
	defer par.SetParallelism(par.Parallelism())
	var wit [2][]string
	var em [2]int64
	for side, q := range []int{runtime.GOMAXPROCS(0), 1} {
		par.SetParallelism(q)
		for _, h := range probes {
			cc := new(obs.CostCounter)
			occ, ferr := ix.FindOccurrenceCtx(obs.WithCost(context.Background(), cc), h)
			if ferr != nil {
				return 0, 0, 0, ferr
			}
			if occ != nil && !core.VerifyOccurrence(g, h, occ) {
				return 0, 0, 0, fmt.Errorf("find witness %v is not an occurrence", occ)
			}
			wit[side] = append(wit[side], fmt.Sprint(occ))
			em[side] += cc.Snapshot().Emissions
		}
	}
	for i := range wit[0] {
		if wit[0][i] != wit[1][i] {
			mismatch++
		}
	}
	return mismatch, em[0], em[1], nil
}

// indexMetrics reports an Index's own counters over its lifetime: memo
// hit fractions per artifact class, resident bytes and batching leverage.
func indexMetrics(m map[string]float64, ix *index.Index) {
	for _, ms := range ix.MemoStats() {
		switch ms.Class {
		case "clustering", "cover", "separating", "pattern":
			frac := 0.0
			if ms.Hits+ms.Misses > 0 {
				frac = float64(ms.Hits) / float64(ms.Hits+ms.Misses)
			}
			m["index.memo_hit_frac."+ms.Class] = frac
		}
	}
	st := ix.Stats()
	m["index.mem_bytes"] = float64(st.MemBytes)
	if st.Sweeps > 0 {
		m["index.queries_per_sweep"] = float64(st.Queries) / float64(st.Sweeps)
	}
}

// gridMiss: one caller asks warm Index.Decide for relabeled triangles on
// a grid. A grid is bipartite, so every answer is a certain miss and
// every query spends the full run budget: the equal-work case where the
// band DP and the band fan-out do nearly all the work.
type gridMiss struct {
	indexBench
	// want is the oracle's answer for a triangle; tests plant a wrong one.
	want bool
}

func newGridMiss(cfg config, rng *rand.Rand) workload {
	side := 20
	if cfg.tiny {
		side = 5
	}
	g := graph.Grid(side, side)
	w := &gridMiss{indexBench: indexBench{rng: rng, g: graph.FromEdges(g.N(), g.Edges()),
		shapes: [][2]int{{3, 1}}, acc: make(map[*tracer]*indexAcc)}}
	for range 4 {
		w.probes = append(w.probes, relabel(graph.Cycle(4), rng))
	}
	return w
}

func (w *gridMiss) check() error {
	found, err := core.Decide(w.g, graph.Cycle(4), programOptions())
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("grid-miss: C4 not found in the grid")
	}
	return nil
}

func (w *gridMiss) op(_ int, tr *tracer) (sample, error) {
	h := relabel(graph.Cycle(3), w.rng)
	q := w.next
	w.next++
	var found bool
	var err error
	var d time.Duration
	if tr == nil {
		t0 := time.Now()
		found, err = w.ix.Decide(h)
		d = time.Since(t0)
	} else {
		canon(tr, q, h)
		d, err = w.traced(tr, q, true, func(opt core.Options, _ context.Context, parent int) error {
			var err error
			src := timedSource{tr: tr, parent: parent, query: q, ix: w.ix}
			found, err = core.DecideFrom(src, w.ix.Graph(), h, opt)
			return err
		})
		w.replay(tr, q, false, h)
	}
	if err != nil {
		return sample{}, fmt.Errorf("grid-miss decide: %w", err)
	}
	if found != w.want {
		return sample{}, fmt.Errorf("grid-miss: triangle found=%v, want %v", found, w.want)
	}
	return sample{dur: d}, nil
}

// planarHitScan: one caller sends warm Index.Scan batches of four
// relabeled motifs to a random planar host. Every motif occurs, so the
// run exercises first-hit cancellation, speculative band work, the
// compiled-pattern cache with canonical dedupe, and one-sweep
// multi-pattern DP, while little DP work is done per answer.
type planarHitScan struct {
	indexBench
	motifs []*graph.Graph
	deck   []int
	// want is the oracle's answer for every member; tests plant a wrong one.
	want bool
}

// batchSize is the number of motifs in one Scan batch.
const batchSize = 4

func newPlanarHitScan(cfg config, rng *rand.Rand) workload {
	n := 512
	if cfg.tiny {
		n = 128
	}
	w := &planarHitScan{motifs: motifs(), want: true}
	w.indexBench = indexBench{rng: rng, g: graph.RandomPlanar(n, 0.5, rand.New(rand.NewPCG(hostSeed, 0))),
		acc: make(map[*tracer]*indexAcc)}
	seen := make(map[[2]int]bool)
	for _, h := range w.motifs {
		if sh := shapeOf(h); !seen[sh] {
			seen[sh] = true
			w.shapes = append(w.shapes, sh)
		}
	}
	w.probes = w.batch()
	return w
}

// batch draws the next batchSize motifs from a deck holding each motif
// once, reshuffled when empty, so every motif is asked equally often
// whatever the seed, and relabels each.
func (w *planarHitScan) batch() []*graph.Graph {
	hs := make([]*graph.Graph, batchSize)
	for i := range hs {
		if len(w.deck) == 0 {
			w.deck = w.rng.Perm(len(w.motifs))
		}
		hs[i] = relabel(w.motifs[w.deck[0]], w.rng)
		w.deck = w.deck[1:]
	}
	return hs
}

// check compares a first batch against the naive search and verifies a
// find witness for every member.
func (w *planarHitScan) check() error {
	hs := w.batch()
	res := w.ix.Scan(context.Background(), hs)
	for i, h := range hs {
		if res[i].Err != nil {
			return res[i].Err
		}
		if want := naive.Decide(w.g, h); res[i].Found != want {
			return fmt.Errorf("planar-hit-scan: member %d found=%v, naive says %v", i, res[i].Found, want)
		}
		occ, err := w.ix.FindOccurrence(h)
		if err != nil {
			return err
		}
		if !core.VerifyOccurrence(w.g, h, occ) {
			return fmt.Errorf("planar-hit-scan: find witness %v of member %d is not an occurrence", occ, i)
		}
	}
	return nil
}

func (w *planarHitScan) op(_ int, tr *tracer) (sample, error) {
	hs := w.batch()
	q := w.next
	w.next++
	var res []index.ScanResult
	var d time.Duration
	if tr == nil {
		t0 := time.Now()
		res = w.ix.Scan(context.Background(), hs)
		d = time.Since(t0)
	} else {
		canon(tr, q, hs...)
		d, _ = w.traced(tr, q, false, func(_ core.Options, ctx context.Context, _ int) error {
			res = w.ix.Scan(ctx, hs)
			return nil
		})
		w.replay(tr, q, true, hs...)
	}
	for i, r := range res {
		if r.Err != nil {
			return sample{}, fmt.Errorf("planar-hit-scan member %d: %w", i, r.Err)
		}
		if r.Found != w.want {
			return sample{}, fmt.Errorf("planar-hit-scan: member %d found=%v, want %v", i, r.Found, w.want)
		}
	}
	return sample{dur: d}, nil
}
