package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/naive"
	"planarsi/internal/obs"
	"planarsi/internal/par"
)

// List returns (w.h.p.) every occurrence of the connected pattern h in g,
// implementing Theorem 4.2: repeat the cover-and-enumerate run, dedupe by
// hashing, and stop once log2(j) + Θ(log n) consecutive iterations find
// nothing new (Observation 2 bounds the probability that a long head
// streak hides an unfound occurrence). Every iteration finds each fixed
// occurrence with probability >= 1/2.
//
// Occurrences are injective maps from pattern vertices to target vertices;
// automorphic images of the same vertex set count separately, matching the
// paper's listing semantics.
func List(g, h *graph.Graph, opt Options) ([]Occurrence, error) {
	return ListFrom(freshSource{g, opt}, g, h, opt)
}

// ListFrom is List drawing its per-run covers from src.
func ListFrom(src CoverSource, g, h *graph.Graph, opt Options) ([]Occurrence, error) {
	if trivial, res, err := validate(g, h); err != nil {
		return nil, err
	} else if trivial {
		if !res {
			return nil, nil
		}
		// k == 0: the unique empty occurrence.
		return []Occurrence{{}}, nil
	}
	if _, l := graph.Components(h); l > 1 {
		return nil, ErrDisconnectedPattern
	}
	k := h.N()
	if k == 1 {
		out := make([]Occurrence, g.N())
		for v := range out {
			out[v] = Occurrence{int32(v)}
		}
		return out, nil
	}
	d := graph.Diameter(h)
	found := make(map[string]Occurrence)
	logN := math.Log2(float64(g.N()) + 2)
	j := 0
	streak := 0
	for {
		if opt.Cancel.Cancelled() {
			return nil, par.ErrCancelled
		}
		t0 := opt.Trace.Begin()
		pc := src.Prepared(k, d, j)
		tracePrepare(opt, j, t0, pc)
		run := j
		j++
		opt.addRun(len(pc.Bands))
		occs := enumeratePrepared(pc, h, run, opt)
		added := 0
		for _, o := range occs {
			key := o.Key()
			if _, dup := found[key]; !dup {
				found[key] = o
				added++
			}
		}
		if added > 0 {
			streak = 0
		} else {
			streak++
		}
		// Stopping rule of Theorem 4.2: terminate after log2(j) + Θ(log n)
		// consecutive empty iterations.
		threshold := int(math.Ceil(math.Log2(float64(j)+1))) + int(math.Ceil(2*logN)) + 1
		if streak >= threshold {
			break
		}
		if opt.MaxRuns > 0 && j >= opt.MaxRuns {
			break
		}
	}
	// A token that fired during the last iterations may have truncated
	// enumeration (bands silently skip when cancelled); the stopping rule
	// could then break with an incomplete `found`. Never return partial
	// data with a nil error.
	if err := opt.Cancel.Err(); err != nil {
		return nil, err
	}
	out := make([]Occurrence, 0, len(found))
	for _, o := range found {
		out = append(out, o)
	}
	return out, nil
}

// Count returns (w.h.p.) the number of occurrences of the connected
// pattern h in g. As the paper's conclusion notes, counting via listing is
// not work-efficient — the work grows with the number of occurrences —
// but it is correct w.h.p.
func Count(g, h *graph.Graph, opt Options) (int, error) {
	occs, err := List(g, h, opt)
	return len(occs), err
}

// CountFrom is Count drawing its per-run covers from src.
func CountFrom(src CoverSource, g, h *graph.Graph, opt Options) (int, error) {
	occs, err := ListFrom(src, g, h, opt)
	return len(occs), err
}

// FindOne returns a single occurrence of the connected pattern h in g, or
// nil when none was found within the run budget.
func FindOne(g, h *graph.Graph, opt Options) (Occurrence, error) {
	return FindOneFrom(freshSource{g, opt}, g, h, opt)
}

// FindOneFrom is FindOne drawing its per-run covers from src.
func FindOneFrom(src CoverSource, g, h *graph.Graph, opt Options) (Occurrence, error) {
	if trivial, res, err := validate(g, h); err != nil {
		return nil, err
	} else if trivial {
		if res {
			return Occurrence{}, nil
		}
		return nil, nil
	}
	if _, l := graph.Components(h); l > 1 {
		return nil, ErrDisconnectedPattern
	}
	k := h.N()
	if k == 1 {
		return Occurrence{0}, nil
	}
	d := graph.Diameter(h)
	runs := opt.maxRuns(g.N())
	for run := 0; run < runs; run++ {
		if opt.Cancel.Cancelled() {
			return nil, par.ErrCancelled
		}
		t0 := opt.Trace.Begin()
		pc := src.Prepared(k, d, run)
		tracePrepare(opt, run, t0, pc)
		opt.addRun(len(pc.Bands))
		if occ := findInPrepared(pc, h, run, opt); occ != nil {
			return occ, nil
		}
	}
	if err := opt.Cancel.Err(); err != nil {
		return nil, err
	}
	return nil, nil
}

// enumeratePrepared lists every occurrence contained in some band of the
// prepared cover, translated to original vertex ids. Following Section
// 4.2.1, only occurrences touching the band's lowest BFS level are
// reported, so each occurrence inside a cluster is produced by exactly one
// band (the one whose lowest level is the occurrence's closest-to-root
// level); this keeps the per-run work proportional to the number of
// occurrences rather than d times it.
func enumeratePrepared(pc *PreparedCover, h *graph.Graph, run int, opt Options) []Occurrence {
	bands := pc.Bands
	results := make([][]Occurrence, len(bands))
	par.ForGrain(0, len(bands), 1, func(i int) {
		injectBandFaults()
		t0 := opt.Trace.Begin()
		if opt.Cancel.Cancelled() || bands[i].Band == nil {
			opt.Trace.Span("band", run, i, t0, "skipped")
			return
		}
		occs, cost := enumerateBand(&bands[i], h, opt)
		results[i] = occs
		opt.addBandCost(cost)
		if opt.Trace != nil {
			// The note's occurrence count is only rendered on traced
			// queries; unexercised fmt stays off the untraced path.
			opt.Trace.SpanCost("band", run, i, t0, fmt.Sprintf("occs=%d", len(occs)), cost)
		}
	})
	var out []Occurrence
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// enumerateBand lists the band's occurrences that touch its lowest
// level, returning the band's DP cost alongside (zero for tiny bands
// and naive fallbacks).
func enumerateBand(pb *PreparedBand, h *graph.Graph, opt Options) ([]Occurrence, obs.Cost) {
	b := pb.Band
	if b.G.N() < h.N() {
		return nil, obs.Cost{}
	}
	var local []match.Assignment
	var cost obs.Cost
	if eng, ok := solvePrepared(pb, h, false, opt); ok {
		cost = eng.Problem().Cost.Snapshot()
		if opt.Cancel.Cancelled() {
			// The DP may have aborted mid-run; Enumerate on a partial
			// result is unsound and the answer is being discarded anyway.
			return nil, cost
		}
		local = eng.Enumerate(0)
	} else {
		for _, a := range naive.Search(b.G, h, naive.Options{}) {
			local = append(local, match.Assignment(a))
		}
	}
	var out []Occurrence
	for _, a := range local {
		if !touchesLowest(b.LowestLevelLocal, a) {
			continue
		}
		occ := make(Occurrence, len(a))
		for u, lv := range a {
			occ[u] = b.Orig[lv]
		}
		out = append(out, occ)
	}
	return out, cost
}

func touchesLowest(lowest []bool, a match.Assignment) bool {
	for _, lv := range a {
		if lv >= 0 && lowest[lv] {
			return true
		}
	}
	return false
}

// findInPrepared returns the occurrence of the lowest-index band of the
// prepared cover that has one (original ids), or nil. The witness does
// not depend on the schedule: a hit in band i fells the bands above it
// mid-DP (they can no longer hold the witness), while the bands below
// run on.
func findInPrepared(pc *PreparedCover, h *graph.Graph, run int, opt Options) Occurrence {
	bands := pc.Bands
	hits := newBandHits(len(bands), opt.Cancel)
	par.ForGrain(0, len(bands), 1, func(i int) {
		injectBandFaults()
		pb := &bands[i]
		b := pb.Band
		inner := opt
		inner.Cancel = hits.tokens[i]
		t0 := inner.Trace.Begin()
		if inner.Cancel.Cancelled() || b == nil || b.G.N() < h.N() {
			inner.Trace.Span("band", run, i, t0, "skipped")
			return
		}
		var local []match.Assignment
		var cost obs.Cost
		if eng, ok := solvePrepared(pb, h, false, inner); ok {
			cost = eng.Problem().Cost.Snapshot()
			inner.addBandCost(cost)
			if inner.Cancel.Cancelled() {
				inner.Trace.SpanCost("band", run, i, t0, "cancelled", cost)
				return
			}
			local = eng.Enumerate(1)
		} else {
			for _, a := range naive.Search(b.G, h, naive.Options{Limit: 1}) {
				local = append(local, match.Assignment(a))
			}
		}
		if len(local) == 0 {
			inner.Trace.SpanCost("band", run, i, t0, "miss", cost)
			return
		}
		inner.Trace.SpanCost("band", run, i, t0, "found", cost)
		occ := make(Occurrence, len(local[0]))
		for u, lv := range local[0] {
			occ[u] = b.Orig[lv]
		}
		hits.record(i, occ)
	})
	return hits.witness()
}

// bandHits collects the witnesses of one cover run's bands and keeps the
// lowest-index one. Every band gets its own child of the query token; a
// hit in band i fires the tokens of the bands above i.
type bandHits struct {
	tokens []*par.Canceller
	occ    []Occurrence
	lowest atomic.Int64 // lowest band with a hit; len(occ) while none has
}

func newBandHits(n int, parent *par.Canceller) *bandHits {
	h := &bandHits{tokens: make([]*par.Canceller, n), occ: make([]Occurrence, n)}
	for i := range h.tokens {
		h.tokens[i] = par.NewChild(parent)
	}
	h.lowest.Store(int64(n))
	return h
}

// record stores band i's witness and, if it is the lowest so far, fells
// the bands between i and the previous lowest.
func (h *bandHits) record(i int, occ Occurrence) {
	h.occ[i] = occ
	for {
		lo := h.lowest.Load()
		if int64(i) >= lo {
			return
		}
		if h.lowest.CompareAndSwap(lo, int64(i)) {
			for j := i + 1; j < int(lo); j++ {
				h.tokens[j].Cancel()
			}
			return
		}
	}
}

// witness returns the lowest band's occurrence, or nil. Call it after
// the band loop has joined.
func (h *bandHits) witness() Occurrence {
	if lo := int(h.lowest.Load()); lo < len(h.occ) {
		return h.occ[lo]
	}
	return nil
}
