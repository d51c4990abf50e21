package eval

import (
	"context"
	"reflect"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
	"assertionbench/internal/mine"
)

// collectStream drains a stream into the same shape Run produces.
func collectStream(t *testing.T, ctx context.Context, gen Generator, examples []llm.Example, e *Experiment, opt RunOptions) RunResult {
	t.Helper()
	res := RunResult{Model: gen.Name(), Shots: opt.withDefaults().Shots}
	for o, err := range Stream(ctx, gen, examples, e.Corpus, opt) {
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range o.Verdicts {
			res.Metrics.Add(v)
		}
		res.Metrics.NStatic += o.StaticDischarged
		res.Designs = append(res.Designs, o)
	}
	return res
}

// TestStreamMatchesRun is the stream/batch equivalence contract: the
// collected stream must be identical to Run's RunResult at the same seed,
// for sequential, parallel, and sharded configurations. Every run starts
// from purged memory caches.
func TestStreamMatchesRun(t *testing.T) {
	e := testExperiment(t, 10)
	gen := NewModelGenerator(llm.GPT4o())
	base := RunOptions{Shots: 5, UseCorrector: true, Seed: 3}

	configs := []struct {
		name string
		mod  func(*RunOptions)
	}{
		{"sequential", func(o *RunOptions) { o.Workers = 1 }},
		{"parallel", func(o *RunOptions) { o.Workers = 4 }},
		{"sharded", func(o *RunOptions) { o.Workers = 2; o.ShardIndex = 1; o.ShardCount = 3 }},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opt := base
			cfg.mod(&opt)
			bench.DefaultElab.Purge()
			batch, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
			if err != nil {
				t.Fatal(err)
			}
			bench.DefaultElab.Purge()
			streamed := collectStream(t, context.Background(), gen, e.ICL, e, opt)
			if !reflect.DeepEqual(batch, streamed) {
				t.Errorf("stream differs from batch\nbatch:  %+v\nstream: %+v", batch.Metrics, streamed.Metrics)
			}
		})
	}
}

// TestStreamShardsConcatenate: concatenating every shard's stream must
// reproduce the unsharded stream, outcome for outcome, with global
// indices intact. Every run starts from purged memory caches.
func TestStreamShardsConcatenate(t *testing.T) {
	e := testExperiment(t, 9)
	gen := NewModelGenerator(llm.GPT35())
	opt := RunOptions{Shots: 1, UseCorrector: true, Seed: 5, Workers: 2}

	bench.DefaultElab.Purge()
	full := collectStream(t, context.Background(), gen, e.ICL, e, opt)
	var merged []DesignOutcome
	const shards = 3
	for i := 0; i < shards; i++ {
		sOpt := opt
		sOpt.ShardIndex, sOpt.ShardCount = i, shards
		bench.DefaultElab.Purge()
		part := collectStream(t, context.Background(), gen, e.ICL, e, sOpt)
		merged = append(merged, part.Designs...)
	}
	if !reflect.DeepEqual(full.Designs, merged) {
		t.Error("concatenated shard streams differ from the unsharded stream")
	}
	for i, o := range merged {
		if o.Index != i {
			t.Errorf("outcome %d carries global index %d", i, o.Index)
		}
	}
}

// TestStreamYieldsInOrder: outcomes arrive with strictly increasing
// corpus indices even under a parallel pool.
func TestStreamYieldsInOrder(t *testing.T) {
	e := testExperiment(t, 8)
	gen := NewModelGenerator(llm.GPT35())
	next := 0
	for o, err := range Stream(context.Background(), gen, e.ICL, e.Corpus, RunOptions{Shots: 1, Workers: 4}) {
		if err != nil {
			t.Fatal(err)
		}
		if o.Index != next {
			t.Fatalf("outcome %d arrived out of order (index %d)", next, o.Index)
		}
		next++
	}
	if next != 8 {
		t.Fatalf("stream yielded %d outcomes, want 8", next)
	}
}

// TestMinerGeneratorThroughPipeline: a classical miner registered via the
// Generator interface runs through the same pipeline as an LLM model end
// to end — and, being FPV-filtered at the source, never produces CEX or
// error verdicts.
func TestMinerGeneratorThroughPipeline(t *testing.T) {
	e := testExperiment(t, 6)
	gen := GoldMineGenerator(mine.Options{MaxAssertions: 4})
	r, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{Shots: 1, UseCorrector: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Model != "GOLDMINE" {
		t.Errorf("run labelled %q", r.Model)
	}
	if len(r.Designs) != 6 {
		t.Fatalf("evaluated %d designs, want 6", len(r.Designs))
	}
	if r.Metrics.Total() == 0 {
		t.Fatal("miner produced no classified assertions")
	}
	if r.Metrics.NError > 0 {
		t.Errorf("FPV-filtered miner output produced %d error verdicts", r.Metrics.NError)
	}
	// The miner's pipeline must be deterministic like any generator's.
	again, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{Shots: 1, UseCorrector: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, again) {
		t.Error("miner run differs between worker counts")
	}
}
