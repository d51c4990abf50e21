package fpv

import (
	"context"
	"slices"
	"testing"

	"assertionbench/internal/verilog"
)

// TestHuntStopsAtDemand: exploration does no work past demand. A
// bounded batch whose graph search is too small to refute its property
// hands it to the hunt, which finds a counter-example at run r. The
// cached trace must then hold exactly runs 0..r: no run after the one
// that decided the batch is simulated.
func TestHuntStopsAtDemand(t *testing.T) {
	nl, err := verilog.ElaborateSource(chunkySrc, "chunky")
	if err != nil {
		t.Fatal(err)
	}
	// Seed 1 draws its first x == 200 with y >= 200 in run 16 of 40.
	opt := Options{MaxProductStates: 50, MaxInputBits: 2, MaxInputSamples: 6,
		RandomRuns: 40, RandomDepth: 64, Seed: 1, NoStatic: true}
	var cache GraphCache
	e := NewEngine()
	e.Graphs = &cache
	res := e.VerifyAll(context.Background(), nl, []string{"x == 200 |-> y < 200"}, opt)[0]
	_, ht := cache.newestGraph()
	if res.Status != StatusCEX || ht == nil {
		t.Fatalf("test premise: status %v with hunt trace %v, want a hunt counter-example", res.Status, ht != nil)
	}
	// r is the first run whose stimulus the counter-example replays.
	r := -1
	for k := 0; k < ht.RunsDone && r < 0; k++ {
		match := true
		for c := 0; c <= res.CEX.ViolationCycle && match; c++ {
			match = slices.Equal(ht.input(k, c), res.CEX.Inputs[c])
		}
		if match {
			r = k
		}
	}
	if r < 8 || r >= opt.RandomRuns-1 {
		t.Fatalf("test premise: the counter-example comes from run %d, want 8 <= r < %d", r, opt.RandomRuns-1)
	}
	if ht.RunsDone != r+1 {
		t.Errorf("hunt simulated %d runs, want %d: the counter-example was found in run %d", ht.RunsDone, r+1, r)
	}
}
