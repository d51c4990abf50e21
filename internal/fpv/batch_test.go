package fpv

import (
	"context"
	"fmt"
	"testing"

	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// diffResult compares two results field by field, CEX stimulus included.
func diffResult(a, b Result) string {
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case a.NonVacuous != b.NonVacuous:
		return fmt.Sprintf("nonvacuous %v vs %v", a.NonVacuous, b.NonVacuous)
	case a.Exhaustive != b.Exhaustive:
		return fmt.Sprintf("exhaustive %v vs %v", a.Exhaustive, b.Exhaustive)
	case a.States != b.States:
		return fmt.Sprintf("states %d vs %d", a.States, b.States)
	case a.Depth != b.Depth:
		return fmt.Sprintf("depth %d vs %d", a.Depth, b.Depth)
	case (a.CEX == nil) != (b.CEX == nil):
		return fmt.Sprintf("cex presence %v vs %v", a.CEX != nil, b.CEX != nil)
	}
	if a.CEX == nil {
		return ""
	}
	if a.CEX.ViolationCycle != b.CEX.ViolationCycle || a.CEX.AttemptCycle != b.CEX.AttemptCycle {
		return fmt.Sprintf("cex cycles %d/%d vs %d/%d",
			a.CEX.ViolationCycle, a.CEX.AttemptCycle, b.CEX.ViolationCycle, b.CEX.AttemptCycle)
	}
	if len(a.CEX.Inputs) != len(b.CEX.Inputs) {
		return fmt.Sprintf("cex stimulus length %d vs %d", len(a.CEX.Inputs), len(b.CEX.Inputs))
	}
	for t := range a.CEX.Inputs {
		for i := range a.CEX.Inputs[t] {
			if a.CEX.Inputs[t][i] != b.CEX.Inputs[t][i] {
				return fmt.Sprintf("cex stimulus cycle %d input %d: %#x vs %#x",
					t, i, a.CEX.Inputs[t][i], b.CEX.Inputs[t][i])
			}
		}
	}
	return ""
}

// batchCases is a spread of designs and property lists covering proven,
// vacuous, refuted, ranged, $past-heavy and bounded-mode outcomes.
var batchCases = []struct {
	name, src, top string
	props          []string
}{
	{"counter", counterSrc, "counter", []string{
		"rst == 1 |=> count == 0",
		"en == 1 && rst == 0 && count < 15 |=> count == $past(count) + 1",
		"en == 1 |=> count == 0",   // refutable
		"count == 500 |-> en == 1", // vacuous
		"en == 0 && rst == 0 |=> $stable(count)",
	}},
	{"arbiter", arbiterSrc, "arb2", []string{
		"rst == 1 |=> gnt_ == 0",
		"req1 == 1 && req2 == 0 |-> gnt1 == 1", // refutable
		"req2 == 0 |-> gnt2 == 0",
		"gnt_ == 0 |-> gnt2 == (req2 && !req1)",
	}},
	{"delayed_ack", delayedAckSrc, "delayed_ack", []string{
		"st == 0 && req == 1 |-> ##[1:3] ack == 1",
		"st == 0 && req == 1 |-> ##[1:2] ack == 1",
		"$rose(ack) |=> ack == 0",
	}},
	{"wide_adder", `
module adder(input [15:0] a, input [15:0] b, output [16:0] sum);
  assign sum = a + b;
endmodule
`, "adder", []string{
		"1 |-> sum == a + b",
		"1 |-> sum == a - b", // refutable, bounded
		"a == 0 |=> $past(a) == 0",
	}},
}

// TestBatchMatchesBatchesOfOne checks VerifyBatch against N unshared
// batches of one — each assertion verified through VerifySource on a
// cache-less engine — field for field (CEX stimulus included) across
// exhaustive-friendly and starved budgets. What the batch shares across
// properties (graph, union rows, hunt trace) is what this isolates.
func TestBatchMatchesBatchesOfOne(t *testing.T) {
	budgets := []Options{
		{},
		{MaxProductStates: 400, MaxInputSamples: 6, RandomRuns: 8, RandomDepth: 24, Seed: 9},
		{MaxProductStates: 60, MaxInputBits: 2, MaxInputSamples: 4, RandomRuns: 6, RandomDepth: 16, Seed: 3},
	}
	for _, tc := range batchCases {
		nl := elab(t, tc.src, tc.top)
		var cs []*sva.Compiled
		for _, p := range tc.props {
			a, err := sva.Parse(p)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", tc.name, p, err)
			}
			c, err := sva.Compile(a, nl)
			if err != nil {
				t.Fatalf("%s: compile %q: %v", tc.name, p, err)
			}
			cs = append(cs, c)
		}
		for bi, opt := range budgets {
			for _, interp := range []bool{false, true} {
				opt := opt
				opt.Interp = interp
				batch := NewEngine().VerifyBatch(context.Background(), nl, cs, opt)
				ref := NewEngine()
				for i, p := range tc.props {
					want := ref.VerifySource(context.Background(), nl, p, opt)
					if d := diffResult(batch[i], want); d != "" {
						t.Errorf("%s budget %d interp=%v %q: batched differs from its batch of one: %s",
							tc.name, bi, interp, p, d)
					}
				}
			}
		}
	}
}

// TestBatchCacheReuse verifies that one engine's exploration is reused by
// another through a shared cache, and that verdicts are unchanged.
func TestBatchCacheReuse(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	props := batchCases[0].props
	var cs []*sva.Compiled
	for _, p := range props {
		a, _ := sva.Parse(p)
		c, err := sva.Compile(a, nl)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	var cache GraphCache
	e1 := NewEngine()
	e1.Graphs = &cache
	first := e1.VerifyBatch(context.Background(), nl, cs, Options{})
	if cache.Len() == 0 {
		t.Fatal("batched verification did not populate the cache")
	}
	key := e1.graphKey(true)
	g1, _, _ := cache.lookup(key, cs[0].SupportNets(), nil)
	if g1 == nil {
		t.Fatal("cached graph not found under the engine's key")
	}
	e2 := NewEngine()
	e2.Graphs = &cache
	second := e2.VerifyBatch(context.Background(), nl, cs, Options{})
	g2, _, _ := cache.lookup(key, cs[0].SupportNets(), nil)
	if g1 != g2 {
		t.Error("second batch rebuilt the graph instead of reusing the cache")
	}
	for i := range first {
		if d := diffResult(first[i], second[i]); d != "" {
			t.Errorf("%q: cached rerun differs: %s", props[i], d)
		}
	}
	// A batch whose union needs nets outside the cached support rebuilds
	// over the merged union — and still matches the reference.
	uncached := NewEngine()
	for i, c := range cs {
		want := uncached.VerifyCompiled(context.Background(), nl, c, Options{})
		if d := diffResult(second[i], want); d != "" {
			t.Errorf("%q: cached batch differs from reference: %s", props[i], d)
		}
	}
}

// TestSinglePropertyCallsUseGraphCache: single-property calls are
// batches of one, so on an engine with a GraphCache they read and fill
// the cache like any batch — and still return exactly what fresh
// cache-less engines return.
func TestSinglePropertyCallsUseGraphCache(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	props := []string{
		"en == 1 && rst == 0 && count < 15 |=> count == $past(count) + 1",
		"en == 1 |=> count == 0",
	}
	var cache GraphCache
	e := NewEngine()
	e.Graphs = &cache
	for _, p := range props {
		got := e.VerifySource(context.Background(), nl, p, Options{})
		want := NewEngine().VerifySource(context.Background(), nl, p, Options{})
		if got.Static {
			t.Fatalf("%q: test premise: the property must need a search, got a static verdict", p)
		}
		if d := diffResult(got, want); d != "" {
			t.Errorf("%q: cached single-property call differs from a cache-less engine: %s", p, d)
		}
	}
	if cache.Len() == 0 {
		t.Error("single-property calls left no graph in the engine's cache")
	}
}

// TestGraphCacheUnionGrowth checks that a cached graph over a narrow
// support union is rebuilt (merged) when a batch reads more nets, and
// then serves both unions.
func TestGraphCacheUnionGrowth(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	compile := func(src string) *sva.Compiled {
		a, err := sva.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sva.Compile(a, nl)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	narrow := compile("rst == 1 |=> count == 0")
	wide := compile("en == 1 && rst == 0 && count < 15 |=> count == $past(count) + 1")
	var cache GraphCache
	e := NewEngine()
	e.Graphs = &cache
	// Reset-shaped properties discharge statically and would never build
	// a graph, so this test pins the search path explicitly.
	e.VerifyBatch(context.Background(), nl, []*sva.Compiled{narrow}, Options{NoStatic: true})
	key := e.graphKey(true)
	g1, _, _ := cache.lookup(key, narrow.SupportNets(), nil)
	if g1 == nil {
		t.Fatal("narrow-union graph not cached")
	}
	if g, _, _ := cache.lookup(key, wide.SupportNets(), nil); g != nil {
		t.Fatal("test premise: wide union should miss the narrow graph")
	}
	e.VerifyBatch(context.Background(), nl, []*sva.Compiled{wide, narrow}, Options{NoStatic: true})
	g2, _, _ := cache.lookup(key, wide.SupportNets(), nil)
	if g2 == nil {
		t.Fatal("merged-union graph not cached")
	}
	if g3, _, _ := cache.lookup(key, narrow.SupportNets(), nil); g3 != g2 {
		t.Error("merged graph does not serve the narrow union")
	}
	if cache.Len() != 1 {
		t.Errorf("union growth must replace in place, cache holds %d entries", cache.Len())
	}
}

// TestGraphCacheEviction checks the LRU memory bound.
func TestGraphCacheEviction(t *testing.T) {
	var cache GraphCache
	counter := elab(t, counterSrc, "counter")
	arbiter := elab(t, arbiterSrc, "arb2")
	e := NewEngine()
	e.Graphs = &cache
	verify := func(nl *verilog.Netlist, prop string) {
		a, _ := sva.Parse(prop)
		c, err := sva.Compile(a, nl)
		if err != nil {
			t.Fatal(err)
		}
		// Static discharge skips graph building; the LRU bound only
		// matters on the search path.
		e.VerifyBatch(context.Background(), nl, []*sva.Compiled{c}, Options{NoStatic: true})
	}
	verify(counter, "rst == 1 |=> count == 0")
	if cache.Len() != 1 || cache.Bytes() <= 0 {
		t.Fatalf("cache after one design: len=%d bytes=%d", cache.Len(), cache.Bytes())
	}
	firstBytes := cache.Bytes()
	// Bound the cache just above the first graph: inserting the second
	// design must evict the least recently used entry.
	cache.SetMaxBytes(firstBytes + 64)
	verify(arbiter, "rst == 1 |=> gnt_ == 0")
	if cache.Len() != 1 {
		t.Fatalf("memory bound not enforced: len=%d bytes=%d (max %d)", cache.Len(), cache.Bytes(), firstBytes+64)
	}
	if g, _, _ := cache.lookup(e.graphKey(true), nil, nil); g == nil {
		t.Error("most recent design evicted instead of the LRU one")
	}
	// Shrinking the bound below everything empties the cache...
	cache.SetMaxBytes(1)
	if cache.Len() != 0 || cache.Bytes() != 0 {
		t.Errorf("shrunken bound not applied: len=%d bytes=%d", cache.Len(), cache.Bytes())
	}
	// ...and verification still works (build-and-discard per call).
	verify(counter, "en == 1 |=> count == 0")
}

// TestGraphCacheInvalidationOnSourceChange: same design name, different
// source, elaborated separately — their graphs must never collide (the
// key follows the interned netlist pointer, which follows the source
// hash).
func TestGraphCacheInvalidationOnSourceChange(t *testing.T) {
	srcA := "module m(input clk, input a, output reg q); always @(posedge clk) q <= a; endmodule"
	srcB := "module m(input clk, input a, output reg q); always @(posedge clk) q <= ~a; endmodule"
	nlA := elab(t, srcA, "m")
	nlB := elab(t, srcB, "m")
	prop := "a == 1 |=> q == 1" // holds on A, refuted on B
	var cache GraphCache
	e := NewEngine()
	e.Graphs = &cache
	run := func(nl *verilog.Netlist) Result {
		a, _ := sva.Parse(prop)
		c, err := sva.Compile(a, nl)
		if err != nil {
			t.Fatal(err)
		}
		// Static discharge would bypass graph building entirely (the
		// refined walk proves A's property without search), so force
		// the search path: this test is about graph cache keying.
		return e.VerifyBatch(context.Background(), nl, []*sva.Compiled{c}, Options{NoStatic: true})[0]
	}
	if r := run(nlA); r.Status != StatusProven {
		t.Fatalf("source A: %v, want proven", r.Status)
	}
	if r := run(nlB); r.Status != StatusCEX {
		t.Fatalf("source B after A cached: %v, want cex — stale graph served across a source change?", r.Status)
	}
	if cache.Len() != 2 {
		t.Errorf("expected two distinct graph entries, got %d", cache.Len())
	}
}

// TestVerifyAllMatchesBatchesOfOne: VerifyAll over a list must agree
// result for result with VerifySource per assertion on a cache-less
// engine, including parse/compile errors interleaved with verdicts.
func TestVerifyAllMatchesBatchesOfOne(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	srcs := []string{
		"rst == 1 |=> count == 0",
		"count == |-> en", // syntax error
		"en == 1 |=> count == 0",
		"nosuch == 1 |-> en == 1", // semantic error
		"count == 500 |-> en == 1",
	}
	batched := NewEngine().VerifyAll(context.Background(), nl, srcs, Options{})
	if len(batched) != len(srcs) {
		t.Fatalf("result length %d, want %d", len(batched), len(srcs))
	}
	ref := NewEngine()
	for i, src := range srcs {
		one := ref.VerifySource(context.Background(), nl, src, Options{})
		if batched[i].Status != one.Status {
			t.Errorf("%q: batch=%v one=%v", src, batched[i].Status, one.Status)
		}
		if batched[i].Status != StatusError {
			if d := diffResult(batched[i], one); d != "" {
				t.Errorf("%q: %s", src, d)
			}
		}
	}
	want := []Status{StatusProven, StatusError, StatusCEX, StatusError, StatusVacuous}
	for i, w := range want {
		if batched[i].Status != w {
			t.Errorf("result %d = %v, want %v", i, batched[i].Status, w)
		}
	}
}

// TestBatchCancellation: a canceled context marks undecided batch results
// canceled without panicking or leaving stale verdicts.
func TestBatchCancellation(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	var cs []*sva.Compiled
	for _, p := range batchCases[0].props {
		a, _ := sva.Parse(p)
		c, err := sva.Compile(a, nl)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range NewEngine().VerifyBatch(ctx, nl, cs, Options{}) {
		if r.Status != StatusError || r.Err == nil {
			t.Errorf("canceled batch produced %v (err %v), want error", r.Status, r.Err)
		}
	}
}

// countdownCtx reports canceled after its Err method has been consulted
// n times — deterministic mid-batch cancellation without goroutines.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

func (c *countdownCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestBatchMidPhaseCancellationMarksPending: a cancellation landing
// between phase-1 searches must mark ALREADY-SEARCHED but undecided
// (hunt-pending) properties canceled too — the interim result's zero
// Status is StatusProven and must never leak as a verdict.
func TestBatchMidPhaseCancellationMarksPending(t *testing.T) {
	// Wide inputs force bounded mode, so every property is hunt-pending
	// after its graph search.
	nl := elab(t, `
module adder(input [15:0] a, input [15:0] b, output [16:0] sum);
  assign sum = a + b;
endmodule
`, "adder")
	var cs []*sva.Compiled
	for _, p := range []string{"1 |-> sum == a + b", "a == 0 |-> sum == b"} {
		a, _ := sva.Parse(p)
		c, err := sva.Compile(a, nl)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	// Sweep the countdown so cancellation lands at every polling point of
	// the batch (entry check, per-property checks, search polls, hunt).
	for n := 0; n < 40; n++ {
		results := NewEngine().VerifyBatch(&countdownCtx{Context: context.Background(), n: n}, nl, cs, Options{
			MaxProductStates: 40, MaxInputSamples: 3, RandomRuns: 2, RandomDepth: 8,
		})
		for i, r := range results {
			if r.Status == StatusError && r.Err != nil {
				continue // canceled: fine
			}
			// A non-error result under cancellation must be a genuinely
			// decided verdict, identical to the uncanceled reference.
			want := NewEngine().VerifyCompiled(context.Background(), nl, cs[i], Options{
				MaxProductStates: 40, MaxInputSamples: 3, RandomRuns: 2, RandomDepth: 8,
			})
			if d := diffResult(r, want); d != "" {
				t.Fatalf("countdown %d result %d: leaked undecided verdict: %s", n, i, d)
			}
		}
	}
}
