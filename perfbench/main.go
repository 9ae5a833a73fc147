// Command perfbench is the repository's benchmark. It builds one
// workload's inputs from a seed, sets up a warm system several times,
// checks its answers against an untimed oracle, then runs the workload's
// closed loop for a fixed time and prints every metric by name and unit.
//
//	perfbench --workload grid-miss --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 reports the per-layer metrics: it runs the loop untraced and
// traced, at full parallelism and at parallelism 1, and writes the spans
// and the per-layer self-time table of each traced phase under --out.
//
// The last line of standard output is the result object; the line
// before it is the run header. A wrong answer fails the run (exit 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/par"
)

// programSeed is the Options.Seed every program instance runs with. It
// stays fixed so the workload seed alone changes the inputs.
const programSeed = 1

// checkSeed is the seed named for checking a claim on inputs no one
// tuned against.
const checkSeed = 7919

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// tiny shrinks every input for the benchmark's own tests.
	tiny bool
}

// sample is one completed operation of a closed loop.
type sample struct {
	dur  time.Duration
	edit bool
}

// workload is one benchmark workload. setup and op are the measured
// calls; everything else is untimed.
type workload interface {
	// setup builds a warm system from the generated inputs. It is timed
	// and repeated; the last system built serves the loop.
	setup() error
	// check is the untimed oracle run on the warm system before the loop.
	check() error
	// callers is the number of closed-loop callers.
	callers() int
	// round is the number of operations a caller's share must be a whole
	// multiple of, so that every run covers whole rounds of the inputs.
	round() int
	// op performs caller c's next operation and checks its answer. With a
	// tracer it records spans, and its sample is the traced API call.
	op(c int, tr *tracer) (sample, error)
	// phaseStart runs before a phase's loop and phaseEnd after it. Before
	// a traced phase, phaseStart runs the benchmark's own replays of the
	// workload's set-up and its probes.
	phaseStart(ph *phase) error
	phaseEnd(ph *phase)
	// layerMetrics reports the per-layer values of the phases run so far.
	layerMetrics(r *traceReport) map[string]float64
	close()
}

var workloads = map[string]func(cfg config, rng *rand.Rand) workload{
	"grid-miss":       newGridMiss,
	"planar-hit-scan": newPlanarHitScan,
	"serve-edits":     newServeEdits,
	"connectivity":    newConnectivity,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: generates relabelings, the op mix and edit sequences")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.StringVar(&cfg.out, "out", ".bench_build/trace", "directory for span files and per-layer tables")
	flag.Parse()
	cfg.trace = traceFlag == 1
	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil && res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header describes the machine and build a result was measured on.
type header struct {
	Workload    string         `json:"workload"`
	Trace       bool           `json:"trace"`
	Seed        uint64         `json:"seed"`
	ProgramSeed uint64         `json:"program_seed"`
	CheckSeed   uint64         `json:"check_seed"`
	Seconds     float64        `json:"seconds"`
	CPU         string         `json:"cpu"`
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Commit      string         `json:"commit"`
	Dirty       bool           `json:"dirty"`
	Samples     map[string]int `json:"samples"`
}

// run executes one invocation and writes the header and result lines to
// stdout. It returns a nil result only when the workload could not run
// at all.
func run(cfg config, stdout, stderr io.Writer) (*result, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return runWorkload(cfg, mk(cfg, workloadRNG(cfg.seed)), stdout, stderr)
}

// workloadRNG is the generator every workload draws its inputs from.
func workloadRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x5eed)) }

// runWorkload runs w as cfg says; see run.
func runWorkload(cfg config, w workload, stdout, stderr io.Writer) (*result, error) {
	defer w.close()
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	par.SetParallelism(nproc)

	h := newHeader(cfg, nproc)
	setupS, liveHeap, reps, err := timeSetup(w)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	fail := func(err error) {
		res.Correct = false
		fmt.Fprintln(stderr, "perfbench: wrong answer:", err)
	}
	if err := w.check(); err != nil {
		fail(err)
		res.Failed++
	}
	res.Attempted++

	dur := time.Duration(cfg.seconds * float64(time.Second))
	var measured *phase
	if cfg.trace {
		rep := runTracePhases(w, dur, nproc)
		for _, ph := range rep.phases() {
			res.Attempted += ph.attempted
			res.Failed += ph.failed
			for _, e := range ph.errs {
				fail(e)
			}
		}
		measured = rep.untraced
		vals := w.layerMetrics(rep)
		for name, v := range rep.common() {
			vals[name] = v
		}
		fill(res, perLayer, vals)
		if cfg.out != "" {
			for _, ph := range []*phase{rep.traced, rep.traced1} {
				stem := fmt.Sprintf("%s-p%d", cfg.workload, ph.p)
				if err := ph.tr.write(cfg.out, stem); err != nil {
					fmt.Fprintln(stderr, "perfbench: writing trace:", err)
				}
				fmt.Fprintf(stderr, "per-layer self time, %s at parallelism %d:\n", cfg.workload, ph.p)
				ph.tr.table(stderr)
			}
		}
	} else {
		measured = runPhase(w, dur, nproc, false)
		res.Attempted += measured.attempted
		res.Failed += measured.failed
		for _, e := range measured.errs {
			fail(e)
		}
		q := measured.queries()
		fill(res, endToEnd, map[string]float64{
			"setup_s":        setupS,
			"query_p50_ms":   ms(quantile(q, 0.50)),
			"query_p90_ms":   ms(quantile(q, 0.90)),
			"throughput_qps": float64(len(measured.samples)) / measured.elapsed.Seconds(),
			"ok_frac":        1 - float64(res.Failed)/float64(res.Attempted),
			"live_heap_mb":   liveHeap,
		})
	}
	h.Samples = map[string]int{"query": len(measured.queries()), "edit": len(measured.edits()), "setup": reps}
	printTable(stderr, cfg, res, h)
	hb, _ := json.Marshal(map[string]any{"header": h})
	fmt.Fprintln(stdout, string(hb))
	rb, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(rb))
	if !res.Correct {
		return res, errors.New("the run gave wrong answers")
	}
	return res, nil
}

// timeSetup builds the warm system at least three times and for at least
// two seconds, and reports the median setup time in seconds. A build that
// follows one of more than a millisecond starts after a collection, so
// that it does not pay for its predecessor's garbage. Microsecond builds
// run many thousands of times: their first few thousand run slower, until
// the processor and allocator warm up. timeSetup also reports the live
// heap after the first build, before any superseded system exists.
func timeSetup(w workload) (setupS, heapMB float64, reps int, err error) {
	var ts []time.Duration
	start := time.Now()
	for len(ts) < 3 || (time.Since(start) < 2*time.Second && len(ts) < 100000) {
		if len(ts) > 0 && ts[len(ts)-1] > time.Millisecond {
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, 0, 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0))
		if len(ts) == 1 {
			heapMB = liveHeapMB()
		}
	}
	return quantile(ts, 0.5).Seconds(), heapMB, len(ts), nil
}

// liveHeapMB is the live heap after forced collections; the second one
// frees what sync.Pool caches kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// phase is one closed-loop run at one parallelism, traced or not.
type phase struct {
	p         int
	tr        *tracer
	samples   []sample
	attempted int
	failed    int
	errs      []error
	elapsed   time.Duration
	allocMB   float64
	gcCPU     float64
	totalCPU  float64
}

func (ph *phase) queries() []time.Duration { return ph.pick(false) }
func (ph *phase) edits() []time.Duration   { return ph.pick(true) }

func (ph *phase) pick(edit bool) []time.Duration {
	var out []time.Duration
	for _, s := range ph.samples {
		if s.edit == edit {
			out = append(out, s.dur)
		}
	}
	return out
}

// maxErrs bounds the wrong answers a phase keeps for its report.
const maxErrs = 5

// runPhase runs the workload's closed loop: every caller issues its next
// operation as soon as the previous one returns, until the time is up
// and its operation count is a whole number of rounds.
func runPhase(w workload, dur time.Duration, p int, traced bool) *phase {
	par.SetParallelism(p)
	defer par.SetParallelism(runtime.GOMAXPROCS(0))
	ph := &phase{p: p}
	if traced {
		ph.tr = newTracer()
	}
	if err := w.phaseStart(ph); err != nil {
		ph.attempted++
		ph.failed++
		ph.errs = append(ph.errs, err)
	}
	before := readRuntime()
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < w.callers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n == 0 || time.Since(start) < dur || n%w.round() != 0; n++ {
				s, err := w.op(c, ph.tr)
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
					if len(ph.errs) < maxErrs {
						ph.errs = append(ph.errs, err)
					}
				} else {
					ph.samples = append(ph.samples, s)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	w.phaseEnd(ph)
	after := readRuntime()
	ph.allocMB = (after[0] - before[0]) / (1 << 20)
	ph.gcCPU = after[1] - before[1]
	ph.totalCPU = after[2] - before[2]
	return ph
}

var runtimeMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// readRuntime samples heap allocation and GC and total CPU time.
func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// traceReport holds the four phases of a per-layer run.
type traceReport struct {
	untraced, untraced1 *phase
	traced, traced1     *phase
}

func (r *traceReport) phases() []*phase {
	return []*phase{r.untraced, r.traced, r.untraced1, r.traced1}
}

// runTracePhases splits the measured time over four phases: untraced and
// traced at parallelism p, then untraced and traced at parallelism 1.
func runTracePhases(w workload, dur time.Duration, p int) *traceReport {
	q := dur / 4
	r := &traceReport{}
	r.untraced = runPhase(w, q, p, false)
	r.traced = runPhase(w, q, p, true)
	r.untraced1 = runPhase(w, q, 1, false)
	r.traced1 = runPhase(w, q, 1, true)
	return r
}

// common reports the per-layer metrics every workload shares: the
// runtime's, the par layer's scaling and the tracing overhead.
func (r *traceReport) common() map[string]float64 {
	m := make(map[string]float64)
	for _, ph := range []struct {
		sfx string
		ph  *phase
	}{{"", r.untraced}, {".p1", r.untraced1}} {
		calls := float64(max(ph.ph.attempted, 1))
		m["runtime.alloc_mb_per_query"+ph.sfx] = ph.ph.allocMB / calls
		if ph.ph.totalCPU > 0 {
			m["runtime.gc_cpu_frac"+ph.sfx] = ph.ph.gcCPU / ph.ph.totalCPU
		}
	}
	p50 := quantile(r.untraced.queries(), 0.5)
	if p50 > 0 {
		m["par.speedup"] = float64(quantile(r.untraced1.queries(), 0.5)) / float64(p50)
		m["trace.overhead_frac"] = float64(quantile(r.traced.queries(), 0.5))/float64(p50) - 1
	}
	return m
}

// decl declares one reported metric and its unit.
type decl struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. BENCHMARK.json declares
// the same names and units.
var endToEnd = []decl{
	{"setup_s", "s"}, {"query_p50_ms", "ms"}, {"query_p90_ms", "ms"},
	{"throughput_qps", "1/s"}, {"ok_frac", "frac"}, {"live_heap_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A ".p1" name is measured
// at parallelism 1, its plain twin at full parallelism. A layer that does
// not run on a workload reports 0.
var perLayer = withP1([]decl{
	{"estc.busy_ms", "ms"}, {"cover.busy_ms", "ms"}, {"treedecomp.busy_ms", "ms"},
	{"match.busy_ms", "ms"}, {"par.efficiency", "frac"},
	{"core.bands_per_query", "count"}, {"core.runs_per_query", "count"},
	{"index.prepared_ms", "ms"}, {"index.apply_edits_ms", "ms"},
	{"serve.req_per_batch", "count"}, {"serve.http_overhead_ms", "ms"}, {"serve.edit_p50_ms", "ms"},
	{"planarity.embed_ms", "ms"}, {"conn.face_incidence_ms", "ms"},
	{"runtime.alloc_mb_per_query", "MB"}, {"runtime.gc_cpu_frac", "frac"},
}, []decl{
	{"cover.bands", "count"}, {"treedecomp.max_width", "count"},
	{"pmdag.busy_ms", "ms"}, {"pmdag.emissions_per_query", "count"},
	{"match.canon_us", "us"}, {"par.speedup", "x"},
	{"core.useful_frac", "frac"}, {"core.witness_mismatch", "count"},
	{"index.memo_hit_frac.clustering", "frac"}, {"index.memo_hit_frac.cover", "frac"},
	{"index.memo_hit_frac.separating", "frac"}, {"index.memo_hit_frac.pattern", "frac"},
	{"index.mem_bytes", "bytes"}, {"index.queries_per_sweep", "count"},
	{"index.bands_kept_frac", "frac"}, {"index.bands_kept_frac_first", "frac"},
	{"serve.avg_wait_us", "us"}, {"conn.cycle_checks", "count"},
	{"trace.overhead_frac", "frac"},
})

// withP1 returns the metrics of both, adding a ".p1" twin of each of the
// first list's.
func withP1(both, once []decl) []decl {
	var out []decl
	for _, d := range both {
		out = append(out, d, decl{d.name + ".p1", d.unit})
	}
	return append(out, once...)
}

// fill reports every declared metric, taking values from vals.
func fill(res *result, decls []decl, vals map[string]float64) {
	for _, d := range decls {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	f := pos - float64(lo)
	return time.Duration(float64(s[lo])*(1-f) + float64(s[hi])*f)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func newHeader(cfg config, nproc int) header {
	h := header{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed,
		ProgramSeed: programSeed, CheckSeed: checkSeed, Seconds: cfg.seconds,
		CPU: cpuModel(), NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTable writes the human-readable summary to w.
func printTable(w io.Writer, cfg config, res *result, h header) {
	fmt.Fprintf(w, "%s seed=%d trace=%v  %s, nproc=%d, %s, commit %s dirty=%v\n",
		cfg.workload, cfg.seed, cfg.trace, h.CPU, h.NProc, h.GoVersion, h.Commit, h.Dirty)
	fmt.Fprintf(w, "samples: query n=%d, edit n=%d, setup n=%d; attempted %d, failed %d\n",
		h.Samples["query"], h.Samples["edit"], h.Samples["setup"], res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// programOptions is the fixed pipeline configuration every workload runs.
func programOptions() core.Options { return core.Options{Seed: programSeed} }
