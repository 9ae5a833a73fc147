package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/graph"
)

var testOpt = core.Options{Seed: 7, MaxRuns: 4}

// SyncBuffer is a mutex-guarded bytes.Buffer for the tests of both
// serve packages: log and trace sinks are written from handler
// goroutines while the test reads them.
type SyncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *SyncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *SyncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSchedulerCoalesces proves the micro-batching contract: requests
// arriving together are served by fewer Scan batches than requests, and
// every coalesced answer equals the direct one-shot API's answer for the
// same Options. MaxBatch = number of requests makes the dispatch point
// deterministic (the final request completes the batch; the long window
// never fires).
func TestSchedulerCoalesces(t *testing.T) {
	g := graph.Grid(6, 6)
	patterns := []*graph.Graph{
		graph.Cycle(4), graph.Cycle(3), graph.Path(4), graph.Star(4),
		graph.Cycle(4), graph.Path(3), graph.Cycle(6), graph.Path(5),
	}
	reg := NewRegistry(RegistryOptions{Pipeline: testOpt})
	e, err := reg.Register("g", g, false)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{
		Window:   10 * time.Minute,
		MaxBatch: len(patterns),
	})

	var wg sync.WaitGroup
	results := make([]bool, len(patterns))
	for i, h := range patterns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sched.Submit(context.Background(), e, KindDecide, h)
			if err != nil {
				t.Errorf("pattern %d: %v", i, err)
				return
			}
			if res.Err != nil {
				t.Errorf("pattern %d: %v", i, res.Err)
				return
			}
			results[i] = res.Found
		}()
	}
	wg.Wait()

	st := sched.Stats()
	if st.Requests != uint64(len(patterns)) {
		t.Fatalf("requests = %d, want %d", st.Requests, len(patterns))
	}
	if st.Batches != 1 {
		t.Fatalf("batches = %d, want 1 (all requests coalesced)", st.Batches)
	}
	if st.MaxBatch != int64(len(patterns)) {
		t.Fatalf("maxBatch = %d, want %d", st.MaxBatch, len(patterns))
	}
	for i, h := range patterns {
		want, err := core.Decide(g, h, testOpt)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Errorf("pattern %d: coalesced answer %v, direct answer %v", i, results[i], want)
		}
	}
}

// TestSchedulerWindowFlush checks that a lone request is dispatched by
// the window timer, and that counted answers match the direct API too.
func TestSchedulerWindowFlush(t *testing.T) {
	g := graph.Grid(5, 5)
	h := graph.Cycle(4)
	reg := NewRegistry(RegistryOptions{Pipeline: testOpt})
	e, err := reg.Register("g", g, false)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{Window: time.Millisecond})
	res, err := sched.Submit(context.Background(), e, KindCount, h)
	if err != nil || res.Err != nil {
		t.Fatalf("submit: %v / %v", err, res.Err)
	}
	want, err := core.Count(g, h, testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want || res.Found != (want > 0) {
		t.Fatalf("coalesced count %d (found=%v), direct count %d", res.Count, res.Found, want)
	}
}

// TestSchedulerAdmission checks the queue bound: with one request parked
// in a long batching window and MaxQueued = 1, the next request is
// rejected with ErrOverloaded instead of piling up.
func TestSchedulerAdmission(t *testing.T) {
	g := graph.Grid(4, 4)
	h := graph.Cycle(4)
	reg := NewRegistry(RegistryOptions{Pipeline: testOpt})
	e, err := reg.Register("g", g, false)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{Window: 300 * time.Millisecond, MaxQueued: 1})

	first := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), e, KindDecide, h)
		first <- err
	}()
	for sched.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := sched.Submit(context.Background(), e, KindDecide, h); err != ErrOverloaded {
		t.Fatalf("second submit: err = %v, want ErrOverloaded", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if got := sched.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

// TestRegistryEvictionSheds checks stage-1 eviction: when cached
// artifacts push the registry past its budget, Maintain resets
// least-recently-used Index caches while keeping every graph registered.
func TestRegistryEvictionSheds(t *testing.T) {
	g1, g2 := graph.Grid(5, 5), graph.Grid(6, 6)
	budget := g1.MemBytes() + g2.MemBytes() + 1 // graphs fit, artifacts do not
	reg := NewRegistry(RegistryOptions{Pipeline: testOpt, MaxBytes: budget})
	e1, err := reg.Register("g1", g1, false)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := reg.Register("g2", g2, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Entry{e1, e2} {
		if _, err := e.Index().Decide(graph.Cycle(4)); err != nil {
			t.Fatal(err)
		}
		if e.Index().Stats().MemBytes == 0 {
			t.Fatalf("%s: no cached artifacts after a query", e.Name())
		}
	}

	reg.Maintain()

	st := reg.Stats()
	if len(st.Graphs) != 2 {
		t.Fatalf("graphs after shed = %d, want 2 (shedding must not unregister)", len(st.Graphs))
	}
	if st.CacheResets == 0 {
		t.Fatalf("no cache resets recorded; stats: %+v", st)
	}
	if st.Bytes > budget {
		t.Fatalf("usage %d still over budget %d", st.Bytes, budget)
	}
	// Shed caches must refill transparently on the next query.
	if _, err := e1.Index().Decide(graph.Cycle(4)); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryEvictionRemoves checks stage-2 eviction and the LRU order:
// with a budget below the graphs themselves, idle unpinned entries are
// removed least-recently-used first (OnRemove observes the order), while
// pinned entries survive.
func TestRegistryEvictionRemoves(t *testing.T) {
	var removed []string
	reg := NewRegistry(RegistryOptions{
		Pipeline: testOpt,
		MaxBytes: 1,
		OnRemove: func(e *Entry) { removed = append(removed, e.Name()) },
	})
	// Budget 1 would evict at Register time; register with eviction
	// disabled by filling entries before any Maintain runs concurrently.
	// Register itself calls Maintain, so build the LRU shape first with a
	// large budget and then shrink it.
	reg.opt.MaxBytes = 1 << 40
	for _, name := range []string{"a", "b", "c"} {
		if _, err := reg.Register(name, graph.Grid(4, 4), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Register("pinned", graph.Grid(4, 4), true); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so it is the most recently used unpinned entry.
	e := reg.Acquire("a")
	if e == nil {
		t.Fatal("acquire a")
	}
	reg.Release(e)

	reg.opt.MaxBytes = 1
	reg.Maintain()

	want := []string{"b", "c", "a"}
	if len(removed) != len(want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	for i := range want {
		if removed[i] != want[i] {
			t.Fatalf("removed %v, want LRU order %v", removed, want)
		}
	}
	st := reg.Stats()
	if len(st.Graphs) != 1 || st.Graphs[0].Name != "pinned" {
		t.Fatalf("surviving graphs %+v, want only the pinned entry", st.Graphs)
	}
}

// TestRegistryInUseProtected checks that an entry held by a request is
// never removed (its cache may still be shed as a last resort — safe,
// since in-flight queries keep the immutable artifacts they hold), that
// Remove refuses it with ErrInUse, and that releasing it makes it
// evictable again.
func TestRegistryInUseProtected(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Pipeline: testOpt, MaxBytes: 1 << 40})
	if _, err := reg.Register("g", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}
	e := reg.Acquire("g")
	if e == nil {
		t.Fatal("acquire")
	}
	if _, err := e.Index().Decide(graph.Cycle(4)); err != nil {
		t.Fatal(err)
	}
	reg.opt.MaxBytes = 1
	reg.Maintain()
	if got := len(reg.Names()); got != 1 {
		t.Fatalf("in-use entry evicted (graphs = %d)", got)
	}
	if err := reg.Remove("g"); !errors.Is(err, ErrInUse) {
		t.Fatalf("Remove on an in-use entry: err = %v, want ErrInUse", err)
	}
	reg.Release(e)
	reg.Maintain()
	if got := len(reg.Names()); got != 0 {
		t.Fatalf("idle entry survived a below-graph-size budget (graphs = %d)", got)
	}
	if err := reg.Remove("g"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove on an evicted entry: err = %v, want ErrNotFound", err)
	}
}

// TestServeChurnRace exercises the whole layer concurrently — coalesced
// queries, registration, removal, eviction, stats — for the race
// detector.
func TestServeChurnRace(t *testing.T) {
	s := New(Options{
		Pipeline:  testOpt,
		MaxBytes:  64 << 10,
		Scheduler: SchedulerOptions{Window: time.Millisecond, MaxBatch: 4},
	})
	if _, err := s.Registry().Register("g", graph.Grid(5, 5), true); err != nil {
		t.Fatal(err)
	}
	patterns := []*graph.Graph{graph.Cycle(4), graph.Cycle(3), graph.Path(4)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				e := s.Registry().Acquire("g")
				if e == nil {
					t.Error("acquire failed")
					return
				}
				if _, err := s.Scheduler().Submit(context.Background(), e, KindDecide, patterns[i%len(patterns)]); err != nil {
					t.Errorf("submit: %v", err)
				}
				s.Registry().Release(e)
				s.Registry().Maintain()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			name := "tmp"
			if _, err := s.Registry().Register(name, graph.Grid(3, 3), false); err != nil {
				continue
			}
			s.Stats()
			_ = s.Registry().Remove(name)
		}
	}()
	wg.Wait()
}
