package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// onPool runs f as the "pool" subtest: the work-stealing pool is the
// runtime every combinator contract below is checked against.
func onPool(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("pool", f)
}

func TestEnginesCoverRangeExactlyOnce(t *testing.T) {
	onPool(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 7, 100, 10_000} {
			counts := make([]atomic.Int32, n)
			For(0, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if counts[i].Load() != 1 {
					t.Fatalf("n=%d: index %d visited %d times", n, i, counts[i].Load())
				}
			}
		}
	})
}

func TestEnginesNestedFor(t *testing.T) {
	onPool(t, func(t *testing.T) {
		var total atomic.Int64
		For(0, 40, func(i int) {
			For(0, 40, func(j int) {
				For(0, 5, func(k int) { total.Add(1) })
			})
		})
		if total.Load() != 40*40*5 {
			t.Fatalf("triple-nested For total=%d want %d", total.Load(), 40*40*5)
		}
	})
}

func TestEnginesReducePackPrefix(t *testing.T) {
	onPool(t, func(t *testing.T) {
		n := 4096
		if got := Reduce(0, n, 0, func(i int) int { return i }, func(a, b int) int { return a + b }); got != n*(n-1)/2 {
			t.Fatalf("Reduce=%d want %d", got, n*(n-1)/2)
		}
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = 1
		}
		if total := ExclusivePrefixSum(xs); total != int64(n) {
			t.Fatalf("prefix total=%d want %d", total, n)
		}
		for i := range xs {
			if xs[i] != int64(i) {
				t.Fatalf("prefix[%d]=%d want %d", i, xs[i], i)
			}
		}
		idx := PackIndex(n, func(i int) bool { return i%7 == 0 })
		if len(idx) != (n+6)/7 {
			t.Fatalf("PackIndex len=%d", len(idx))
		}
	})
}

// TestSetParallelism checks that an explicit worker count holds against
// GOMAXPROCS changes, and that SetParallelism(0) takes GOMAXPROCS as of
// that call.
func TestSetParallelism(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(old)
		SetParallelism(0)
	}()

	SetParallelism(2)
	if got := Parallelism(); got != 2 {
		t.Fatalf("after SetParallelism(2): Parallelism() = %d", got)
	}
	runtime.GOMAXPROCS(4)
	if got := Parallelism(); got != 2 {
		t.Fatalf("worker count must ignore GOMAXPROCS: Parallelism() = %d", got)
	}

	done := make(chan struct{})
	Do(func() {}, func() { close(done) })
	<-done

	SetParallelism(0)
	if got := Parallelism(); got != 4 {
		t.Fatalf("after SetParallelism(0): Parallelism() = %d, want 4", got)
	}
}

// spinWork burns deterministic CPU proportional to units and returns a
// value the caller accumulates so the loop cannot be optimized away.
func spinWork(units int) uint64 {
	x := uint64(units) | 1
	for i := 0; i < units; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// TestOnceHeldAcrossNestedLoop: every item of an outer loop runs a
// nested loop under one sync.Once, the shape of an Index memo build
// reached from a Scan. The holder joins the nested loop's forks while
// the other items block on the Once. A join that ran unrelated tasks
// while waiting let the thief of a nested block pick up a sibling item,
// which blocked on the Once under the block the holder was joining.
func TestOnceHeldAcrossNestedLoop(t *testing.T) {
	SetParallelism(2)
	defer SetParallelism(0)
	for iter := 0; iter < 300; iter++ {
		done := make(chan uint64)
		go func() {
			var once sync.Once
			var sink atomic.Uint64
			ForGrain(0, 16, 1, func(int) {
				once.Do(func() {
					ForGrain(0, 64, 1, func(j int) { sink.Add(spinWork(5000 + j)) })
				})
			})
			done <- sink.Load()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: not finished after 5s (deadlocked join)", iter)
		}
	}
}

// TestPoolNestedForConcurrentResize: deeply nested pool-backed loops
// must stay correct while SetParallelism keeps swapping the shared pool
// under them (run under -race by make race).
func TestPoolNestedForConcurrentResize(t *testing.T) {
	defer SetParallelism(0)
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetParallelism(1 + i%5)
			}
		}
	}()
	defer func() {
		close(stop)
		<-flipped // no resize may land after the deferred SetParallelism(0)
	}()
	for iter := 0; iter < 30; iter++ {
		var total atomic.Int64
		For(0, 30, func(i int) {
			For(0, 30, func(j int) { total.Add(1) })
		})
		if total.Load() != 900 {
			t.Fatalf("iteration %d: total=%d want 900", iter, total.Load())
		}
	}
}

// TestSetParallelismOneRetiresPool: downsizing to a sequential
// configuration must not strand the shared pool's parked workers.
func TestSetParallelismOneRetiresPool(t *testing.T) {
	SetParallelism(3)
	defer SetParallelism(0)
	var sum atomic.Int64
	For(0, 1000, func(i int) { sum.Add(1) })
	if sum.Load() != 1000 {
		t.Fatalf("For sum=%d", sum.Load())
	}
	if current().pool == nil {
		t.Fatal("parallelism 3 should run on a shared pool")
	}
	SetParallelism(1)
	if s := current(); s.pool != nil {
		t.Fatalf("SetParallelism(1) left the shared pool alive (procs=%d)", s.pool.procs)
	}
	// Still functional sequentially, and again after re-upsizing.
	sum.Store(0)
	For(0, 100, func(i int) { sum.Add(1) })
	SetParallelism(4)
	For(0, 100, func(i int) { sum.Add(1) })
	if sum.Load() != 200 {
		t.Fatalf("post-resize sum=%d", sum.Load())
	}
}

// TestPoolSharedAcrossGoroutines drives many goroutines through the
// shared pool at once; every loop must still cover its range exactly
// once (workers steal from every goroutine's scopes).
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	const G = 8
	errc := make(chan error, G)
	for g := 0; g < G; g++ {
		go func() {
			for iter := 0; iter < 20; iter++ {
				n := 500
				counts := make([]atomic.Int32, n)
				For(0, n, func(i int) { counts[i].Add(1) })
				for i := range counts {
					if counts[i].Load() != 1 {
						errc <- fmt.Errorf("index %d visited %d times", i, counts[i].Load())
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < G; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
