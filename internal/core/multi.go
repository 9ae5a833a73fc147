package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"planarsi/internal/cover"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/naive"
	"planarsi/internal/obs"
	"planarsi/internal/par"
	"planarsi/internal/pmdag"
)

// Multi-pattern sweeps: several connected patterns of one (k, d) shape
// share the run loop, the prepared covers, and — through match.RunMulti
// / pmdag.RunMulti — a single traversal of every band's decomposition.
// Answers, per-pattern Stats contributions and per-pattern cost flushes
// are identical to running each pattern alone; only the tree/path walks
// and the per-(G, ND) metadata are shared. Per-pattern band-local
// cancellers preserve the solo early-exit shape: a pattern certified
// found drops out of sibling bands (and later runs) without stopping
// its batch-mates.

// groupShape validates the group contract — connected patterns sharing
// one (k, d) shape, 2 <= k <= match.MaxK — and returns the shape. The
// Index's batch grouping guarantees this; violations are caller bugs.
func groupShape(hs []*graph.Graph) (k, d int) {
	k = hs[0].N()
	if k < 2 || k > match.MaxK {
		panic(fmt.Sprintf("core: group sweep requires 2 <= k <= %d, got k=%d", match.MaxK, k))
	}
	d = graph.Diameter(hs[0])
	for _, h := range hs {
		if _, l := graph.Components(h); l > 1 {
			panic("core: group sweep requires connected patterns")
		}
		if h.N() != k || graph.Diameter(h) != d {
			panic("core: group sweep requires patterns of one (k, d) shape")
		}
	}
	return k, d
}

// DecideGroupFrom decides every pattern of hs — connected, all of one
// (k, d) shape — against g in shared sweeps: each cover repetition is
// prepared once and each band's decomposition is walked once for all
// still-undecided patterns. The returned slice is positionally aligned
// with hs and each entry equals what DecideFrom would return for that
// pattern alone (true answers exact, false answers w.h.p.).
func DecideGroupFrom(src CoverSource, g *graph.Graph, hs []*graph.Graph, opt Options) ([]bool, error) {
	if len(hs) == 0 {
		return nil, nil
	}
	if len(hs) == 1 {
		found, err := DecideFrom(src, g, hs[0], opt)
		return []bool{found}, err
	}
	k, d := groupShape(hs)
	if k > g.N() {
		panic("core: group sweep requires k <= n (trivial patterns are the caller's)")
	}
	found := make([]bool, len(hs))
	runs := opt.maxRuns(g.N())
	remaining := len(hs)
	for run := 0; run < runs && remaining > 0; run++ {
		if opt.Cancel.Cancelled() {
			return nil, par.ErrCancelled
		}
		t0 := opt.Trace.Begin()
		pc := src.Prepared(k, d, run)
		tracePrepare(opt, run, t0, pc)
		// Stats stay per logical pattern: every pattern still searching
		// charges this repetition exactly as its solo run loop would.
		for j := range hs {
			if !found[j] {
				opt.addRun(len(pc.Bands))
			}
		}
		groupHasOccurrence(pc, hs, found, run, opt)
		remaining = 0
		for j := range hs {
			if !found[j] {
				remaining++
			}
		}
	}
	if err := opt.Cancel.Err(); err != nil {
		// The last sweep may have been felled mid-flight: negative
		// answers are only trustworthy when every band ran to completion.
		return nil, err
	}
	return found, nil
}

// groupHasOccurrence solves every band of the prepared cover once for
// all still-undecided patterns, setting found[j] for each pattern
// certified in some band. Each pattern owns a band-local child
// canceller: the band that finds pattern j fires j's token, so j's DP
// in sibling bands abandons at the next checkpoint while its
// batch-mates sweep on — the per-pattern analogue of
// preparedHasOccurrence's single-token early exit.
func groupHasOccurrence(pc *PreparedCover, hs []*graph.Graph, found []bool, run int, opt Options) {
	m := len(hs)
	hit := make([]atomic.Bool, m)
	cancels := make([]*par.Canceller, m)
	for j := range cancels {
		if !found[j] {
			cancels[j] = par.NewChild(opt.Cancel)
		}
	}
	k := hs[0].N()
	bands := pc.Bands
	par.ForGrain(0, len(bands), 1, func(i int) {
		injectBandFaults()
		pb := &bands[i]
		t0 := opt.Trace.Begin()
		// Patterns still in play at this band: not decided before the
		// sweep, not certified by a sibling band, token unfired.
		var act []int
		for j := 0; j < m; j++ {
			if !found[j] && !hit[j].Load() && !cancels[j].Cancelled() {
				act = append(act, j)
			}
		}
		if len(act) == 0 || opt.Cancel.Cancelled() || pb.Band == nil || pb.Band.G.N() < k {
			opt.Trace.Span("band", run, i, t0, "skipped")
			return
		}
		ahs := make([]*graph.Graph, len(act))
		acans := make([]*par.Canceller, len(act))
		for idx, j := range act {
			ahs[idx], acans[idx] = hs[j], cancels[j]
		}
		engs, ok := solveGroupBand(pb, ahs, acans, true, opt)
		if !ok {
			// Fallback: too wide for the engines; the naive baseline is
			// exact on the band, run per pattern (zero DP cost, as solo).
			nf := 0
			for _, j := range act {
				if cancels[j].Cancelled() {
					continue
				}
				if naive.Decide(pb.Band.G, hs[j]) {
					hit[j].Store(true)
					cancels[j].Cancel()
					nf++
				}
			}
			if opt.Trace != nil {
				opt.Trace.Span("band", run, i, t0, fmt.Sprintf("fallback:found=%d/%d", nf, len(act)))
			}
			return
		}
		// Per-pattern cost snapshots feed the shared sinks exactly as a
		// solo band solve would; the band span carries their sum.
		var total obs.Cost
		nf := 0
		for idx, j := range act {
			bandCost := engs[idx].Problem().Cost.Snapshot()
			opt.addBandCost(bandCost)
			total.Accumulate(bandCost)
			if cancels[j].Cancelled() {
				// j's DP may have aborted mid-run: partial result, and j
				// is already certified elsewhere (or the query is dying).
				continue
			}
			if engs[idx].Found() {
				hit[j].Store(true)
				cancels[j].Cancel()
				nf++
			}
		}
		if opt.Trace != nil {
			opt.Trace.SpanCost("band", run, i, t0, fmt.Sprintf("found=%d/%d", nf, len(act)), total)
		}
	})
	for j := range hs {
		if hit[j].Load() {
			found[j] = true
		}
	}
}

// solveGroupBand runs the selected engine once over the band's
// decomposition for every pattern of the active set (aligned cancels
// give each pattern its own token). ok=false signals the naive
// fallback, with Stats charged per pattern as the solo path would.
func solveGroupBand(pb *PreparedBand, hs []*graph.Graph, cancels []*par.Canceller, decideOnly bool, opt Options) ([]*match.Result, bool) {
	opt.noteWidth(pb.Width)
	if pb.Fallback {
		for range hs {
			opt.noteFallback()
		}
		return nil, false
	}
	b := pb.Band
	ps := make([]*match.Problem, len(hs))
	for idx, h := range hs {
		var bc *obs.CostCounter
		if opt.costed() {
			bc = new(obs.CostCounter)
		}
		ps[idx] = &match.Problem{G: b.G, H: h, ND: pb.ND, Allowed: b.Allowed, S: b.S,
			DecideOnly: decideOnly, Cancel: cancels[idx], Trace: opt.Trace, Cost: bc}
	}
	if opt.Engine == EngineSequential {
		// Group sweeps are plain-mode only, so the engine choice mirrors
		// solvePreparedMode's: sequential on request, path-DAG otherwise.
		return match.RunMulti(ps, opt.Tracker), true
	}
	return pmdag.RunMulti(ps, opt.Tracker), true
}

// CountGroupFrom counts the occurrences of every pattern of hs —
// connected, one (k, d) shape — sharing the Theorem 4.2 repetition loop:
// each run's cover is prepared once and each band enumerated in one
// group solve. Every pattern keeps its own dedupe set and stopping
// streak, so the returned counts (aligned with hs) equal CountFrom's
// solo answers; patterns that hit their stopping rule drop out of later
// sweeps.
func CountGroupFrom(src CoverSource, g *graph.Graph, hs []*graph.Graph, opt Options) ([]int, error) {
	if len(hs) == 0 {
		return nil, nil
	}
	if len(hs) == 1 {
		c, err := CountFrom(src, g, hs[0], opt)
		return []int{c}, err
	}
	k, d := groupShape(hs)
	if k > g.N() {
		panic("core: group sweep requires k <= n (trivial patterns are the caller's)")
	}
	m := len(hs)
	found := make([]map[string]struct{}, m)
	for j := range found {
		found[j] = make(map[string]struct{})
	}
	streak := make([]int, m)
	done := make([]bool, m)
	logN := math.Log2(float64(g.N()) + 2)
	j := 0
	remaining := m
	for remaining > 0 {
		if opt.Cancel.Cancelled() {
			return nil, par.ErrCancelled
		}
		t0 := opt.Trace.Begin()
		pc := src.Prepared(k, d, j)
		tracePrepare(opt, j, t0, pc)
		run := j
		j++
		var act []int
		for x := 0; x < m; x++ {
			if !done[x] {
				act = append(act, x)
				opt.addRun(len(pc.Bands))
			}
		}
		occs := enumerateGroupPrepared(pc, hs, act, run, opt)
		// Every active pattern's local iteration count equals the shared
		// run index (all start at run 0 and stop by dropping out), so the
		// solo stopping rule applies verbatim.
		threshold := int(math.Ceil(math.Log2(float64(j)+1))) + int(math.Ceil(2*logN)) + 1
		for idx, x := range act {
			added := 0
			for _, o := range occs[idx] {
				key := o.Key()
				if _, dup := found[x][key]; !dup {
					found[x][key] = struct{}{}
					added++
				}
			}
			if added > 0 {
				streak[x] = 0
			} else {
				streak[x]++
			}
			if streak[x] >= threshold || (opt.MaxRuns > 0 && j >= opt.MaxRuns) {
				done[x] = true
				remaining--
			}
		}
	}
	if err := opt.Cancel.Err(); err != nil {
		return nil, err
	}
	counts := make([]int, m)
	for x := range counts {
		counts[x] = len(found[x])
	}
	return counts, nil
}

// enumerateGroupPrepared lists, per active pattern, every occurrence in
// some band of the prepared cover (original ids, lowest-level filter),
// walking each band's decomposition once for the whole group. The outer
// result is aligned with act.
func enumerateGroupPrepared(pc *PreparedCover, hs []*graph.Graph, act []int, run int, opt Options) [][]Occurrence {
	bands := pc.Bands
	results := make([][][]Occurrence, len(bands))
	par.ForGrain(0, len(bands), 1, func(i int) {
		injectBandFaults()
		t0 := opt.Trace.Begin()
		if opt.Cancel.Cancelled() || bands[i].Band == nil {
			opt.Trace.Span("band", run, i, t0, "skipped")
			return
		}
		occs, cost := enumerateGroupBand(&bands[i], hs, act, opt)
		results[i] = occs
		if opt.Trace != nil {
			n := 0
			for _, o := range occs {
				n += len(o)
			}
			opt.Trace.SpanCost("band", run, i, t0, fmt.Sprintf("occs=%d", n), cost)
		}
	})
	out := make([][]Occurrence, len(act))
	for _, r := range results {
		for idx := range r {
			out[idx] = append(out[idx], r[idx]...)
		}
	}
	return out
}

// enumerateGroupBand solves one band once for the whole active group
// (full state sets — enumeration needs them) and extracts each
// pattern's lowest-level occurrences. The returned cost is the sum of
// the per-pattern snapshots already folded into the query sinks.
func enumerateGroupBand(pb *PreparedBand, hs []*graph.Graph, act []int, opt Options) ([][]Occurrence, obs.Cost) {
	b := pb.Band
	out := make([][]Occurrence, len(act))
	var total obs.Cost
	if b.G.N() < hs[act[0]].N() {
		return out, total
	}
	ahs := make([]*graph.Graph, len(act))
	cancels := make([]*par.Canceller, len(act))
	for idx, x := range act {
		ahs[idx] = hs[x]
		// Enumeration has no per-pattern early exit (all occurrences are
		// needed), so every pattern shares the query token.
		cancels[idx] = opt.Cancel
	}
	engs, ok := solveGroupBand(pb, ahs, cancels, false, opt)
	if !ok {
		for idx, x := range act {
			var local []match.Assignment
			for _, a := range naive.Search(b.G, hs[x], naive.Options{}) {
				local = append(local, match.Assignment(a))
			}
			out[idx] = bandOccurrences(b, local)
		}
		return out, total
	}
	for idx := range engs {
		cost := engs[idx].Problem().Cost.Snapshot()
		opt.addBandCost(cost)
		total.Accumulate(cost)
		if opt.Cancel.Cancelled() {
			// Partial DP: Enumerate would be unsound, and the caller's
			// error path discards the whole sweep anyway.
			continue
		}
		out[idx] = bandOccurrences(b, engs[idx].Enumerate(0))
	}
	return out, total
}

// bandOccurrences translates a band's local assignments that touch its
// lowest level into original-id occurrences (the Section 4.2.1 filter
// enumerateBand applies).
func bandOccurrences(b *cover.Band, local []match.Assignment) []Occurrence {
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
	return out
}
