package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/corrector"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/verilog"
)

// diffFPVResults compares two FPV results field by field (CEX stimulus
// included), "" when identical.
func diffFPVResults(a, b fpv.Result) string {
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
				return fmt.Sprintf("cex stimulus cycle %d input %d", t, i)
			}
		}
	}
	return ""
}

// TestBatchedMatchesBatchesOfOneOverCorpus drives the full checked-in
// corpus through the standard generation+correction pipeline and
// compares every batched verdict (shared reachability graph, shared hunt
// traces, in-batch dedup, cached across designs) against N unshared
// batches of one — each assertion through VerifySource on a cache-less
// engine — field for field.
func TestBatchedMatchesBatchesOfOneOverCorpus(t *testing.T) {
	corpus := bench.TestCorpus()
	gen := NewModelGenerator(llm.GPT4o())
	icl := []llm.Example{{
		Name:   "arb2",
		Source: bench.TrainArbiter,
		Assertions: []string{
			"rst == 1 |=> gnt_ == 0;",
			"req1 == 1 && req2 == 0 |-> gnt1 == 1;",
		},
	}}
	opt := fpv.Options{MaxProductStates: 1500, MaxInputBits: 8,
		MaxInputSamples: 8, RandomRuns: 16, RandomDepth: 32, Seed: 1}
	var cache fpv.GraphCache
	batchEng := fpv.NewEngine()
	batchEng.Graphs = &cache
	refEng := fpv.NewEngine()
	verdicts := 0
	for gi, d := range corpus {
		nl, err := bench.Elaborate(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		out, err := gen.Generate(context.Background(), d, icl, GenOptions{Shots: 1, Seed: 1000003 + int64(gi)*7919 + 1})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		fixed, _ := corrector.New(nl).CorrectAll(out.Assertions)
		got := batchEng.VerifyAll(context.Background(), nl, fixed, opt)
		for i, line := range fixed {
			verdicts++
			want := refEng.VerifySource(context.Background(), nl, line, opt)
			if got[i].Status == fpv.StatusError && want.Status == fpv.StatusError {
				continue // parse/compile errors carry distinct error values
			}
			if d := diffFPVResults(got[i], want); d != "" {
				t.Errorf("%s %q: batched differs from its batch of one: %s", corpus[gi].Name, line, d)
			}
		}
	}
	if verdicts < 100 {
		t.Fatalf("corpus comparison covered only %d verdicts", verdicts)
	}
}

// oneAtATimeVerifier verifies each assertion through VerifySource on a
// cache-less engine. It has no VerifyBatch, so the runner takes its
// one-assertion-at-a-time loop.
type oneAtATimeVerifier struct{ eng *fpv.Engine }

func (v oneAtATimeVerifier) Verify(ctx context.Context, _ bench.Design, nl *verilog.Netlist, assertion string, opt fpv.Options) fpv.Result {
	return v.eng.VerifySource(ctx, nl, assertion, opt)
}

// TestBatchedEvalMatchesOneAtATimeEval: whole-pipeline equivalence — a
// full eval run through the default batched verifier, from purged memory
// caches, yields byte-identical outcomes to one that verifies each
// assertion on its own on a cache-less engine.
func TestBatchedEvalMatchesOneAtATimeEval(t *testing.T) {
	e := testExperiment(t, 24)
	gen := NewModelGenerator(llm.GPT4o())
	run := func(newVerifier func() Verifier) RunResult {
		bench.DefaultElab.Purge()
		r, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{
			Shots: 5, UseCorrector: true, Workers: 2, NewVerifier: newVerifier,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	batched := run(nil)
	off := run(func() Verifier { return oneAtATimeVerifier{eng: fpv.NewEngine()} })
	if batched.Metrics != off.Metrics {
		t.Fatalf("metrics differ: batched %+v vs one at a time %+v", batched.Metrics, off.Metrics)
	}
	for i := range batched.Designs {
		a, b := batched.Designs[i], off.Designs[i]
		if a.Design != b.Design || len(a.Verdicts) != len(b.Verdicts) {
			t.Fatalf("outcome shape differs at %d: %s/%d vs %s/%d", i, a.Design, len(a.Verdicts), b.Design, len(b.Verdicts))
		}
		for k := range a.Verdicts {
			if a.Verdicts[k] != b.Verdicts[k] {
				t.Errorf("%s verdict %d: %v vs %v", a.Design, k, a.Verdicts[k], b.Verdicts[k])
			}
		}
	}
}

// TestBatchedRunCancellation: cancelling a batched run mid-corpus stops
// the workers promptly (inside a design's batch, not just between
// designs), surfaces ctx.Err(), and leaks no goroutines.
func TestBatchedRunCancellation(t *testing.T) {
	e := testExperiment(t, 16)
	gen := NewModelGenerator(llm.GPT4o())
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var got error
	n := 0
	for _, err := range Stream(ctx, gen, e.ICL, e.Corpus, RunOptions{
		Shots: 5, UseCorrector: true, Workers: 4,
	}) {
		if err != nil {
			got = err
			break
		}
		n++
		cancel()
	}
	cancel()
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("batched stream after cancel ended with %v, want context.Canceled", got)
	}
	if n == 0 || n >= 16 {
		t.Fatalf("cancellation was not mid-run: %d outcomes yielded", n)
	}
	waitForGoroutines(t, baseline)
}
