package core

import (
	"testing"

	"planarsi/internal/graph"
)

// BenchmarkDecideCancellation measures first-hit cancellation on
// multi-band covers: bands not yet started are skipped once the answer
// is known, and DPs already running in sibling bands are felled.
//
//   - hit-wide:  C4 in Grid(64,64) — many small bands, each DP short.
//   - hit-tall:  Path(8) in Grid(48,48) — few tall bands (k=8, d=7)
//     whose DPs run long. The first band to certify the hit fells the
//     expensive siblings mid-run; this is where cancellation pays.
//   - miss:      C3 in Grid(64,64) — bipartite target, so the full run
//     budget executes and the token never fires; cancellation must
//     cost nothing here.
//
// Every iteration asserts its answer, so a result drift fails loudly.
func BenchmarkDecideCancellation(b *testing.B) {
	wide := graph.Grid(64, 64)
	tall := graph.Grid(48, 48)
	opt := Options{Seed: 7}
	cases := []struct {
		name string
		g, h *graph.Graph
		want bool
	}{
		{"hit-wide", wide, graph.Cycle(4), true},
		{"hit-tall", tall, graph.Path(8), true},
		{"miss", wide, graph.Cycle(3), false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := Decide(c.g, c.h, opt)
				if err != nil || got != c.want {
					b.Fatalf("Decide=%v err=%v want %v", got, err, c.want)
				}
			}
		})
	}
}
