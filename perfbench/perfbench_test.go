package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesDeclarations keeps BENCHMARK.json and the
// metric lists in this package in step.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, file []struct{ Name, Unit string }, decls []decl) {
		if len(file) != len(decls) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark declares %d", kind, len(file), len(decls))
		}
		for i := range min(len(file), len(decls)) {
			if file[i].Name != decls[i].name || file[i].Unit != decls[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark declares %s [%s]",
					kind, i, file[i].Name, file[i].Unit, decls[i].name, decls[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// lastResult parses the result object on the last line of out.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

// TestTinyRunsEmitEveryMetric runs every workload on tiny inputs, untraced
// and traced, and checks each declared metric is printed with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: 0.2, trace: traced, out: t.TempDir(), tiny: true}
			var stdout bytes.Buffer
			res, err := run(cfg, &stdout, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			got := lastResult(t, stdout.String())
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.Name, g, m.Unit)
				}
			}
		}
	}
}

// TestPlantedWrongAnswerFails plants a wrong expected answer in every
// workload's oracle and checks the run fails.
func TestPlantedWrongAnswerFails(t *testing.T) {
	plant := map[string]func(w workload){
		"grid-miss":       func(w workload) { w.(*gridMiss).want = true },
		"planar-hit-scan": func(w workload) { w.(*planarHitScan).want = false },
		"serve-edits":     func(w workload) { w.(*serveEdits).wantC3 = true },
		"connectivity":    func(w workload) { w.(*connectivity).inputs[0].want++ },
	}
	for name, mk := range workloads {
		cfg := config{workload: name, seed: 1, seconds: 0.2, tiny: true}
		w := mk(cfg, workloadRNG(cfg.seed))
		plant[name](w)
		var stdout bytes.Buffer
		res, err := runWorkload(cfg, w, &stdout, io.Discard)
		if err == nil || res == nil || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a planted wrong answer: err=%v result=%+v", name, err, res)
			continue
		}
		if got := lastResult(t, stdout.String()); got.Correct {
			t.Errorf("%s with a planted wrong answer printed correct=true", name)
		}
	}
}
