// Package par provides the shared-memory parallel primitives that stand in
// for the paper's CREW PRAM: fork-join parallel loops, parallel reductions,
// parallel prefix sums, packing, an explicit work-stealing pool, and a
// lightweight cooperative cancellation token (Canceller).
//
// The package-level functions (Do, For, Reduce, ...) run every operation
// as a structured fork-join scope on one shared work-stealing Pool
// (Chase-Lev deques — the greedy scheduler the paper's Brent-style
// bounds assume). An idle worker steals half-ranges from whoever is
// behind, so load stays balanced when item costs are skewed.
//
// The worker count is fixed at first use to runtime.GOMAXPROCS(0) and
// changes afterwards only through SetParallelism.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sizing is one setting of the package-level runtime: the worker count
// and the shared pool serving it (nil when procs == 1, which runs every
// operation inline). Sizings are immutable; SetParallelism installs a
// fresh one, and operations in flight finish on the one they loaded.
type sizing struct {
	procs int
	pool  *Pool
}

var (
	cur   atomic.Pointer[sizing]
	curMu sync.Mutex // serializes installs
)

// current returns the sizing to use for one operation, installing the
// first-use default (GOMAXPROCS) if nothing has been installed yet.
func current() *sizing {
	if s := cur.Load(); s != nil {
		return s
	}
	curMu.Lock()
	defer curMu.Unlock()
	if cur.Load() == nil {
		install(runtime.GOMAXPROCS(0))
	}
	return cur.Load()
}

// install replaces the sizing with one of procs workers, starting a pool
// when procs > 1. The replaced pool is retired asynchronously: its
// workers drain their remaining tasks and exit, while scopes still
// registered on it finish on their own goroutines. Caller holds curMu.
func install(procs int) {
	old := cur.Load()
	if old != nil && old.procs == procs {
		return
	}
	s := &sizing{procs: procs}
	if procs > 1 {
		s.pool = NewPool(procs)
		poolResizes.Add(1)
	}
	cur.Store(s)
	if old != nil && old.pool != nil {
		go old.pool.Close()
	}
}

// Parallelism reports the number of workers the package-level functions
// use.
func Parallelism() int { return current().procs }

// SetParallelism sets the package-level worker count to n; n <= 0 means
// runtime.GOMAXPROCS(0) as of this call. Operations already in flight
// finish on the pool they started with.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	curMu.Lock()
	defer curMu.Unlock()
	install(n)
}

// runBlocks is the dispatch shared by every block-structured
// combinator: split [lo, hi) into blocks of at most grain indices and run
// body on each, possibly in parallel, with logarithmic fork depth
// (matching the PRAM convention that a parallel-for costs O(log n) depth
// to fork).
func runBlocks(s *sizing, lo, hi, grain int, body func(lo, hi int)) {
	if lo >= hi {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if hi-lo <= grain {
		// A single block: run inline without touching the pool.
		body(lo, hi)
		return
	}
	if s.pool == nil {
		// Sequential, still honoring the ≤ grain block contract.
		for l := lo; l < hi; l += grain {
			body(l, min(l+grain, hi))
		}
		return
	}
	c := s.pool.enter()
	defer s.pool.exit(c)
	c.ForBlocks(lo, hi, grain, body)
}

// Do runs the given functions, possibly in parallel, and returns when all
// of them have returned. It is the fork-join primitive: fork every
// function but the first, run the first inline, join.
func Do(fs ...func()) {
	switch len(fs) {
	case 0:
		return
	case 1:
		fs[0]()
		return
	}
	s := current()
	if s.pool == nil {
		for _, f := range fs {
			f()
		}
		return
	}
	c := s.pool.enter()
	defer s.pool.exit(c)
	tasks := make([]Task, len(fs))
	for i, f := range fs {
		tasks[i] = func(*Ctx) { f() }
	}
	c.Do(tasks...)
}

// For runs f(i) for every i in [lo, hi), possibly in parallel, with an
// automatically chosen grain size.
func For(lo, hi int, f func(i int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	s := current()
	runBlocks(s, lo, hi, grainFor(s, n), func(l, h int) {
		for i := l; i < h; i++ {
			f(i)
		}
	})
}

// ForGrain runs f(i) for every i in [lo, hi) with the given grain size:
// ranges of at most grain indices run sequentially.
func ForGrain(lo, hi, grain int, f func(i int)) {
	ForBlocks(lo, hi, grain, func(l, h int) {
		for i := l; i < h; i++ {
			f(i)
		}
	})
}

// ForBlocks splits [lo, hi) into blocks of at most grain indices and runs
// body on each block, possibly in parallel.
func ForBlocks(lo, hi, grain int, body func(lo, hi int)) {
	runBlocks(current(), lo, hi, grain, body)
}

// alignedBlocks partitions [lo, hi) into ⌈n/grain⌉ consecutive blocks of
// exactly grain indices (the last may be short) and runs body(b, l, h) for
// each block b, possibly in parallel. Unlike ForBlocks, block boundaries
// are aligned multiples of grain, so b indexes per-block scratch safely.
func alignedBlocks(s *sizing, lo, hi, grain int, body func(b, l, h int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	nblocks := (n + grain - 1) / grain
	runBlocks(s, 0, nblocks, 1, func(bl, bh int) {
		for b := bl; b < bh; b++ {
			l := lo + b*grain
			h := l + grain
			if h > hi {
				h = hi
			}
			body(b, l, h)
		}
	})
}

func grainFor(s *sizing, n int) int {
	grain := n / (8 * s.procs)
	if grain < 1 {
		grain = 1
	}
	return grain
}

// Reduce computes comb over f(i) for i in [lo, hi) in parallel.
// comb must be associative; id is its identity.
func Reduce[T any](lo, hi int, id T, f func(i int) T, comb func(a, b T) T) T {
	n := hi - lo
	if n <= 0 {
		return id
	}
	s := current()
	grain := grainFor(s, n)
	nblocks := (n + grain - 1) / grain
	partial := make([]T, nblocks)
	alignedBlocks(s, lo, hi, grain, func(b, l, h int) {
		acc := id
		for i := l; i < h; i++ {
			acc = comb(acc, f(i))
		}
		partial[b] = acc
	})
	acc := id
	for _, p := range partial {
		acc = comb(acc, p)
	}
	return acc
}

// Integer is the constraint for the prefix-sum and pack helpers.
type Integer interface {
	~int | ~int32 | ~int64
}

// ExclusivePrefixSum replaces xs with its exclusive prefix sum and returns
// the total. It uses the standard two-pass blocked parallel scan
// (O(n) work, O(log n) depth up to the block-combine pass).
func ExclusivePrefixSum[T Integer](xs []T) T {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := current()
	grain := grainFor(s, n)
	nblocks := (n + grain - 1) / grain
	sums := make([]T, nblocks)
	alignedBlocks(s, 0, n, grain, func(b, l, h int) {
		var s T
		for i := l; i < h; i++ {
			s += xs[i]
		}
		sums[b] = s
	})
	var total T
	for b := 0; b < nblocks; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	alignedBlocks(s, 0, n, grain, func(b, l, h int) {
		acc := sums[b]
		for i := l; i < h; i++ {
			v := xs[i]
			xs[i] = acc
			acc += v
		}
	})
	return total
}

// Pack returns the elements of xs whose index satisfies keep, preserving
// order, using a parallel prefix sum over flags (O(n) work, O(log n) depth).
func Pack[T any](xs []T, keep func(i int) bool) []T {
	n := len(xs)
	if n == 0 {
		return nil
	}
	flags := make([]int32, n)
	For(0, n, func(i int) {
		if keep(i) {
			flags[i] = 1
		}
	})
	total := ExclusivePrefixSum(flags)
	out := make([]T, total)
	For(0, n, func(i int) {
		if keep(i) {
			out[flags[i]] = xs[i]
		}
	})
	return out
}

// PackIndex returns the indices in [0, n) that satisfy keep, in order.
func PackIndex(n int, keep func(i int) bool) []int32 {
	if n == 0 {
		return nil
	}
	flags := make([]int32, n)
	For(0, n, func(i int) {
		if keep(i) {
			flags[i] = 1
		}
	})
	total := ExclusivePrefixSum(flags)
	out := make([]int32, total)
	For(0, n, func(i int) {
		if keep(i) {
			out[flags[i]] = int32(i)
		}
	})
	return out
}
