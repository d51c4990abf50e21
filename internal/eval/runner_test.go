package eval

import (
	"context"
	"reflect"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
)

// TestParallelRunMatchesSequential is the determinism contract of the
// concurrent runner: at the same seed, a parallel run must produce
// RunResults (metrics, per-design outcomes, verdict order) identical to
// the sequential run's. Every run starts from purged memory caches, so
// each verifies its own verdicts instead of reading another's memo.
func TestParallelRunMatchesSequential(t *testing.T) {
	e := testExperiment(t, 10)
	gen := NewModelGenerator(llm.GPT4o())
	opt := RunOptions{Shots: 5, UseCorrector: true, Seed: 3}

	seqOpt := opt
	seqOpt.Workers = 1
	bench.DefaultElab.Purge()
	seq, err := Run(context.Background(), gen, e.ICL, e.Corpus, seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 16} {
		parOpt := opt
		parOpt.Workers = workers
		bench.DefaultElab.Purge()
		par, err := Run(context.Background(), gen, e.ICL, e.Corpus, parOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: parallel run differs from sequential\nseq: %+v\npar: %+v",
				workers, seq.Metrics, par.Metrics)
		}
	}
}

// TestShardedRunsConcatenateToFullRun: evaluating shard 0..n-1 separately
// and concatenating must reproduce the unsharded run, because per-design
// seeds follow global corpus positions. Every run starts from purged
// memory caches.
func TestShardedRunsConcatenateToFullRun(t *testing.T) {
	e := testExperiment(t, 9)
	gen := NewModelGenerator(llm.GPT35())
	opt := RunOptions{Shots: 1, UseCorrector: true, Seed: 5, Workers: 2}

	bench.DefaultElab.Purge()
	full, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	merged := RunResult{Model: full.Model, Shots: full.Shots}
	for i := 0; i < shards; i++ {
		sOpt := opt
		sOpt.ShardIndex, sOpt.ShardCount = i, shards
		bench.DefaultElab.Purge()
		part, err := Run(context.Background(), gen, e.ICL, e.Corpus, sOpt)
		if err != nil {
			t.Fatal(err)
		}
		merged.Designs = append(merged.Designs, part.Designs...)
		merged.Metrics.NPass += part.Metrics.NPass
		merged.Metrics.NCEX += part.Metrics.NCEX
		merged.Metrics.NError += part.Metrics.NError
		merged.Metrics.NStatic += part.Metrics.NStatic
	}
	if !reflect.DeepEqual(full, merged) {
		t.Errorf("concatenated shards differ from the full run\nfull:   %+v\nmerged: %+v",
			full.Metrics, merged.Metrics)
	}
}

func TestRunRejectsBadShardSpec(t *testing.T) {
	e := testExperiment(t, 4)
	gen := NewModelGenerator(llm.GPT35())
	if _, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{ShardIndex: 3, ShardCount: 2}); err == nil {
		t.Fatal("shard index out of range must fail")
	}
}

// TestRunSurfacesDesignErrorDeterministically: a design that fails
// elaboration stops the run at its corpus position with the earlier
// outcomes intact, identically for sequential and parallel runs, and the
// workers skip the doomed remainder.
func TestRunSurfacesDesignErrorDeterministically(t *testing.T) {
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT35())
	corpus := append([]bench.Design{}, e.Corpus[:4]...)
	corpus = append(corpus, bench.Design{Name: "broken", Source: "module broken("})
	corpus = append(corpus, e.Corpus[4:]...)

	bench.DefaultElab.Purge()
	seq, seqErr := Run(context.Background(), gen, e.ICL, corpus, RunOptions{Shots: 1, Workers: 1})
	bench.DefaultElab.Purge()
	par, parErr := Run(context.Background(), gen, e.ICL, corpus, RunOptions{Shots: 1, Workers: 4})
	if seqErr == nil || parErr == nil {
		t.Fatal("broken design must fail the run")
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error differs: sequential %v, parallel %v", seqErr, parErr)
	}
	if len(seq.Designs) != 4 || len(par.Designs) != 4 {
		t.Fatalf("partial results: sequential %d designs, parallel %d, want 4 each",
			len(seq.Designs), len(par.Designs))
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("partial results differ between sequential and parallel runs")
	}
}
