package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/cover"
	"planarsi/internal/estc"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/obs"
	"planarsi/internal/pmdag"
	"planarsi/internal/treedecomp"
)

// Root span names. A "query" root times the real API call, so its
// duration is the traced query time; "replay" and "setup" roots hold the
// benchmark's own re-execution of a layer, kept apart so they never
// count as query time.
const (
	rootQuery  = "query"
	rootReplay = "replay"
	rootSetup  = "setup"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
}

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent, query int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: -1, Parent: parent, Query: query})
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// dur returns a closed span's duration.
func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// add records an already-timed span, such as a band span the program's
// own recorder reported.
func (t *tracer) add(name string, start, end time.Time, parent, query int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Parent: parent, Query: query})
}

// programSpans names the program recorder's spans in the benchmark's
// trace: a "band" is one band's DP, run as a task the par layer fanned
// out; a "prepare" is one cover the Index served.
var programSpans = map[string]string{"band": "pmdag.band", "prepare": "index.prepared"}

// programCounts is what the program's recorder saw of one query: its
// cover repetitions, its bands and their summed busy time.
type programCounts struct {
	runs, bands int
	bandBusy    time.Duration
}

// countProgram counts what the program's recorder saw of one query.
func countProgram(rec *obs.Recorder) programCounts {
	spans, _ := rec.Snapshot()
	var pc programCounts
	for _, s := range spans {
		switch s.Name {
		case "band":
			pc.bands++
			pc.bandBusy += time.Duration(s.DurMicros * 1e3)
		case "prepare":
			pc.runs++
		}
	}
	return pc
}

// importProgram adds the program recorder's band spans, and its prepare
// spans unless the benchmark timed the cover source itself, as children
// of parent, the recorder having started at recStart.
func (t *tracer) importProgram(rec *obs.Recorder, recStart time.Time, parent, query int, prepares bool) programCounts {
	spans, _ := rec.Snapshot()
	for _, s := range spans {
		name, ok := programSpans[s.Name]
		if !ok || (s.Name == "prepare" && !prepares) {
			continue
		}
		st := recStart.Add(time.Duration(s.StartMicros * 1e3))
		t.add(name, st, st.Add(time.Duration(s.DurMicros*1e3)), parent, query)
	}
	return countProgram(rec)
}

// selfStat sums the self time of the spans sharing a name.
type selfStat struct {
	self  time.Duration
	spans int
}

// analyze computes every span's self time — its duration minus the part
// of it that its children's intervals cover — summed per span name, and
// counts the root spans per root name.
func (t *tracer) analyze() (byName map[string]selfStat, roots map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	byName = make(map[string]selfStat)
	roots = make(map[string]int)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if s.Parent < 0 {
			roots[s.Name]++
		}
		var iv [][2]int64
		for _, c := range kids[s.ID] {
			if k := t.spans[c]; k.End >= 0 {
				iv = append(iv, [2]int64{max(k.Start, s.Start), min(k.End, s.End)})
			}
		}
		st := byName[s.Name]
		st.self += time.Duration(s.End-s.Start) - time.Duration(coverage(iv))
		st.spans++
		byName[s.Name] = st
	}
	return byName, roots
}

// coverage returns the total length of the union of the intervals.
func coverage(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	end := int64(math.MinInt64)
	for _, x := range iv {
		if x[1] <= max(x[0], end) {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// perRootMS is the self time of the spans named name per root span named
// root, in milliseconds (0 when there is no such root).
func (t *tracer) perRootMS(name, root string) float64 {
	byName, roots := t.analyze()
	if roots[root] == 0 {
		return 0
	}
	return byName[name].self.Seconds() * 1e3 / float64(roots[root])
}

// selfMS is the total self time of the spans named name, in ms.
func (t *tracer) selfMS(name string) float64 {
	byName, _ := t.analyze()
	return byName[name].self.Seconds() * 1e3
}

// perSpanUS is the mean self time of the spans named name, in µs.
func (t *tracer) perSpanUS(name string) float64 {
	byName, _ := t.analyze()
	st := byName[name]
	if st.spans == 0 {
		return 0
	}
	return st.self.Seconds() * 1e6 / float64(st.spans)
}

// write stores the spans as JSON lines and the per-layer table as text.
func (t *tracer) write(dir, stem string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, stem+".layers.txt"))
	if err != nil {
		return err
	}
	t.table(tf)
	return tf.Close()
}

// table prints the self time of every layer, the module a span belongs
// to, with the span count and the root spans of each kind.
func (t *tracer) table(w io.Writer) {
	byName, roots := t.analyze()
	layers := make(map[string]selfStat)
	for n, st := range byName {
		l := "bench"
		if roots[n] == 0 {
			l, _, _ = strings.Cut(n, ".")
		}
		acc := layers[l]
		acc.self += st.self
		acc.spans += st.spans
		layers[l] = acc
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  roots: %d query, %d replay, %d setup\n", roots[rootQuery], roots[rootReplay], roots[rootSetup])
	fmt.Fprintf(w, "  %-12s %9s %12s\n", "layer", "spans", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "  %-12s %9d %12.3f\n", n, layers[n].spans, layers[n].self.Seconds()*1e3)
	}
}

// timedSource is a core.CoverSource and core.SeparatingSource that times
// each cover the pipeline asks for. Over an Index (ix non-nil) it records
// one "index.prepared" span per lookup. Without one it builds each cover
// fresh through the layers' public functions, exactly as the program's
// own fresh path does, with one span per layer call.
type timedSource struct {
	tr     *tracer
	parent int
	query  int
	ix     core.CoverSource
	g      *graph.Graph
	opt    core.Options
	widths *int
	// clusters, when non-nil, shares one clustering per (k, run) across
	// pattern diameters, as an Index's memo does.
	clusters map[[2]int]*estc.Clustering
}

func (s timedSource) Prepared(k, d, run int) *core.PreparedCover {
	if s.ix != nil {
		id := s.tr.begin("index.prepared", s.parent, s.query)
		defer s.tr.end(id)
		return s.ix.Prepared(k, d, run)
	}
	cl := s.cluster(s.g, k, run)
	return s.decompose(s.timedCover(func() *cover.Cover {
		return cover.FromClustering(s.g, cl, cover.Params{K: k, D: d, Beta: s.opt.Beta}, nil)
	}))
}

func (s timedSource) PreparedSeparating(mask []bool, k, d, run int) *core.PreparedCover {
	cl := s.cluster(s.g, k, run)
	return s.decompose(s.timedCover(func() *cover.Cover {
		return cover.SeparatingFromClustering(s.g, cl, mask, cover.Params{K: k, D: d, Beta: s.opt.Beta}, nil)
	}))
}

func (s timedSource) cluster(g *graph.Graph, k, run int) *estc.Clustering {
	if cl := s.clusters[[2]int{k, run}]; cl != nil {
		return cl
	}
	id := s.tr.begin("estc.cluster", s.parent, s.query)
	cl := core.ClusterRun(g, core.CoverBeta(k, s.opt), run, s.opt)
	s.tr.end(id)
	if s.clusters != nil {
		s.clusters[[2]int{k, run}] = cl
	}
	return cl
}

func (s timedSource) timedCover(build func() *cover.Cover) *cover.Cover {
	id := s.tr.begin("cover.cut", s.parent, s.query)
	defer s.tr.end(id)
	return build()
}

// decompose builds every band's nice tree decomposition, mirroring the
// program's prepare step (bands too wide for the DP fall back).
func (s timedSource) decompose(cov *cover.Cover) *core.PreparedCover {
	pc := &core.PreparedCover{Cover: cov, Bands: make([]core.PreparedBand, len(cov.Bands))}
	for i, b := range cov.Bands {
		id := s.tr.begin("treedecomp.build", s.parent, s.query)
		td := treedecomp.Build(b.G, s.opt.Heuristic)
		nd := treedecomp.MakeNice(td)
		s.tr.end(id)
		pb := core.PreparedBand{Band: b, Width: td.Width()}
		if nd.Width+1 > match.MaxBag {
			pb.Fallback = true
		} else {
			pb.ND = nd
		}
		if s.widths != nil {
			*s.widths = max(*s.widths, pb.Width)
		}
		pc.Bands[i] = pb
	}
	return pc
}

// replayPrepare rebuilds, under one "setup" root, every cover an Index
// prewarms for the given (k, d) shapes, one span per layer call. It
// returns the band count and the widest band decomposition.
func replayPrepare(tr *tracer, g *graph.Graph, opt core.Options, shapes [][2]int) (bands, width int) {
	root := tr.begin(rootSetup, -1, -1)
	defer tr.end(root)
	src := timedSource{tr: tr, parent: root, query: -1, g: g, opt: opt, widths: &width,
		clusters: make(map[[2]int]*estc.Clustering)}
	runs := core.RunBudget(g.N(), opt)
	for _, sh := range shapes {
		for run := 0; run < runs; run++ {
			bands += len(src.Prepared(sh[0], sh[1], run).Bands)
		}
	}
	return bands, width
}

// replayPMDAG re-runs the path-DAG engine band by band over the prepared
// covers an Index serves for h, under one "replay" root, costing every
// band through its own counter. Runs go in order; with untilHit the
// replay stops after the first band that finds h, which is the work a
// sequential first-hit search does. It returns the emissions.
func replayPMDAG(tr *tracer, src core.CoverSource, g, h *graph.Graph, opt core.Options, query int, untilHit bool) int64 {
	root := tr.begin(rootReplay, -1, query)
	defer tr.end(root)
	k, d := h.N(), graph.Diameter(h)
	var emissions int64
	for run := 0; run < core.RunBudget(g.N(), opt); run++ {
		pc := src.Prepared(k, d, run)
		for _, pb := range pc.Bands {
			if pb.Fallback || pb.Band.G.N() < k {
				continue
			}
			cc := new(obs.CostCounter)
			p := &match.Problem{G: pb.Band.G, H: h, ND: pb.ND, Allowed: pb.Band.Allowed, DecideOnly: true, Cost: cc}
			id := tr.begin("pmdag.run", root, query)
			res, _ := pmdag.Run(p, nil)
			tr.end(id)
			emissions += cc.Snapshot().Emissions
			if untilHit && res.Found() {
				return emissions
			}
		}
	}
	return emissions
}
