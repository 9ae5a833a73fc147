package core

import (
	"planarsi/internal/cover"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/naive"
	"planarsi/internal/obs"
	"planarsi/internal/par"
)

// DecideSeparating implements Lemma 5.3: it searches for an occurrence of
// the connected pattern h in g whose removal leaves at least two vertices
// of the terminal set s in different connected components. On success it
// returns a witness occurrence (which always verifies: yes-answers are
// exact); a nil occurrence means none was found, which is correct w.h.p.
// after the default run budget.
//
// The cover is the Section 5.2.1 separating variant — bands are minors of
// g whose merged vertices (contracted complement components) keep the
// separation structure intact while being excluded from the pattern's
// image — and the per-band engine is the Section 5.2.2 extension tracking
// inside/outside labels.
func DecideSeparating(g, h *graph.Graph, s []bool, opt Options) (Occurrence, error) {
	return DecideSeparatingFrom(freshSource{g, opt}, g, h, s, opt)
}

// DecideSeparatingFrom is DecideSeparating drawing its per-run separating
// covers from src.
func DecideSeparatingFrom(src SeparatingSource, g, h *graph.Graph, s []bool, opt Options) (Occurrence, error) {
	if trivial, res, err := validate(g, h); err != nil {
		return nil, err
	} else if trivial {
		// The empty pattern separates nothing; an oversized pattern cannot
		// occur at all.
		_ = res
		return nil, nil
	}
	if len(s) != g.N() {
		panic("core: terminal mask length must equal g.N()")
	}
	if _, l := graph.Components(h); l > 1 {
		return nil, ErrDisconnectedPattern
	}
	// Separation needs at least two surviving terminals.
	terminals := 0
	for _, in := range s {
		if in {
			terminals++
		}
	}
	if terminals < 2 {
		return nil, nil
	}
	k := h.N()
	d := graph.Diameter(h)
	runs := opt.maxRuns(g.N())
	for run := 0; run < runs; run++ {
		if opt.Cancel.Cancelled() {
			return nil, par.ErrCancelled
		}
		t0 := opt.Trace.Begin()
		pc := src.PreparedSeparating(s, k, d, run)
		tracePrepare(opt, run, t0, pc)
		opt.addRun(len(pc.Bands))
		if occ := findSeparatingInPrepared(pc, h, run, opt); occ != nil {
			return occ, nil
		}
	}
	if err := opt.Cancel.Err(); err != nil {
		return nil, err
	}
	return nil, nil
}

// findSeparatingInPrepared solves every separating band and returns the
// witness of the lowest-index band that has one, in original vertex ids,
// or nil. As in findInPrepared, a witness in band i fells the bands
// above it mid-DP, and every band emits exactly one "band" span with its
// outcome and DP cost.
func findSeparatingInPrepared(pc *PreparedCover, h *graph.Graph, run int, opt Options) Occurrence {
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
		var local match.Assignment
		var cost obs.Cost
		if eng, ok := solvePrepared(pb, h, true, inner); ok {
			cost = eng.Problem().Cost.Snapshot()
			inner.addBandCost(cost)
			if inner.Cancel.Cancelled() {
				inner.Trace.SpanCost("band", run, i, t0, "cancelled", cost)
				return
			}
			if as := eng.Enumerate(1); len(as) > 0 {
				local = as[0]
			}
		} else {
			local = separatingBrute(b, h)
		}
		if local == nil {
			inner.Trace.SpanCost("band", run, i, t0, "miss", cost)
			return
		}
		inner.Trace.SpanCost("band", run, i, t0, "found", cost)
		occ := make(Occurrence, len(local))
		for u, lv := range local {
			occ[u] = b.Orig[lv]
		}
		hits.record(i, occ)
	})
	return hits.witness()
}

// separatingBrute is the exact fallback for bands whose decomposition
// exceeds the engine capacity: enumerate occurrences naively, restrict to
// allowed vertices, and test the separation condition directly on the
// band minor.
func separatingBrute(b *cover.Band, h *graph.Graph) match.Assignment {
	for _, a := range naive.Search(b.G, h, naive.Options{}) {
		allowed := true
		for _, v := range a {
			if !b.Allowed[v] {
				allowed = false
				break
			}
		}
		if !allowed {
			continue
		}
		if assignmentSeparates(b.G, b.S, a) {
			return match.Assignment(a)
		}
	}
	return nil
}

// assignmentSeparates checks whether removing the assignment's image
// leaves two S-vertices in different components of bg.
func assignmentSeparates(bg *graph.Graph, s []bool, a []int32) bool {
	removed := make(map[int32]bool, len(a))
	for _, v := range a {
		removed[v] = true
	}
	keep := make([]int32, 0, bg.N()-len(a))
	for v := int32(0); v < int32(bg.N()); v++ {
		if !removed[v] {
			keep = append(keep, v)
		}
	}
	sub, orig := graph.Induce(bg, keep)
	comp, _ := graph.Components(sub)
	first := int32(-1)
	for i, ov := range orig {
		if s[ov] {
			if first < 0 {
				first = comp[i]
			} else if comp[i] != first {
				return true
			}
		}
	}
	return false
}
