package assertionbench

import (
	"context"
	"iter"
	"time"

	"assertionbench/internal/bench"
	"assertionbench/internal/eval"
	"assertionbench/internal/llm"
)

// RunOptions configure one evaluation run of one Generator.
type RunOptions struct {
	// Shots is k for k-shot ICL (the paper evaluates 1 and 5).
	Shots int
	// Seed drives generation; results are deterministic per seed.
	Seed int64
	// UseCorrector enables the paper's Fig. 4 stage-3 syntax corrector
	// (on for COTS models, off for fine-tuned models per Fig. 8).
	UseCorrector bool
	// MaxDesigns truncates the corpus for quick runs (0 = all; negative
	// is an error).
	MaxDesigns int
	// Workers sets the worker-pool size: 0 means GOMAXPROCS, 1 forces a
	// sequential run. Any worker count produces identical results at the
	// same seed.
	Workers int
	// Deadline bounds the whole run's wall clock (anytime mode): when it
	// expires, designs already verified keep their verdicts, in-flight
	// designs keep decided verdicts with the rest Unknown, and unreached
	// designs come back as Truncated stubs. Zero disables the budget.
	Deadline time.Duration
	// DesignBudget bounds each design's verification wall clock the same
	// way, independent of Deadline. Zero disables it.
	DesignBudget time.Duration
	// OnDesignDone, when non-nil, observes every successfully completed
	// design: its global corpus index, its own wall time, and the time
	// since the run started. Called concurrently from worker goroutines —
	// it must be safe for concurrent use and fast. Errored jobs and
	// designs an expired Deadline never reached are not reported.
	OnDesignDone func(index int, wall, sinceStart time.Duration)
	// ShardIndex/ShardCount restrict the run to one of count contiguous
	// corpus shards (ShardCount 0 = unsharded). Concatenating all shards
	// reproduces the unsharded run exactly.
	ShardIndex int
	ShardCount int
	// Verify bounds the built-in FPV verifier; zero fields select the
	// evaluation-grade budget.
	Verify VerifyOptions
	// Verifier replaces the built-in FPV engine when non-nil. The
	// instance is shared by all workers and must be safe for concurrent
	// use.
	Verifier Verifier
	// CacheDir, when non-empty, attaches the persistent artifact store
	// at that directory before the run (see SetCacheDir): compiled
	// programs and FPV reachability graphs are read from and written
	// behind to disk, so a fresh process starts warm. Off by default.
	// The attachment is process-wide and sticky across runs.
	CacheDir string
	// ErrorPolicy selects what a failed design job does to the rest of
	// the run: ErrorPolicyFail (default) ends the stream at the first
	// per-design error, exactly as a sequential walk would;
	// ErrorPolicyContinue converts the failure into an errored
	// DesignOutcome at its corpus position and finishes the run.
	// Cancellation always ends the stream under either policy.
	ErrorPolicy string
	// Retries bounds how many times a design job whose failure is
	// transient (artifact-store I/O, injected faults) is re-attempted
	// before ErrorPolicy applies, each retry after a deterministic
	// seeded backoff. 0 disables retry; negative is an error.
	Retries int
	// Resume serves designs an earlier run already decided straight
	// from their records (journaled through the artifact store, one per
	// design, as designs complete) and evaluates only the undecided
	// rest. A record's key covers what the outcome depends on: the
	// generator's identity (a built-in model's lineage or miner's
	// options; a custom Generator is keyed by its Name), the examples,
	// Shots, Seed, UseCorrector, the verifier's bounds (Verify, or the
	// VerifyOptions of a Verifier from NewVerifier), and the design's
	// name, source and corpus position, so an edited corpus
	// re-evaluates only its edited designs. The resumed stream is
	// identical to a never-interrupted run. Requires an attached
	// artifact store (CacheDir or SetCacheDir) and the built-in
	// verifier: outcomes of a custom Verifier are never journaled.
	Resume bool
}

// Error policies for RunOptions.ErrorPolicy.
const (
	// ErrorPolicyFail ends the stream at the first per-design error (the
	// default, and the original contract).
	ErrorPolicyFail = eval.ErrorPolicyFail
	// ErrorPolicyContinue streams a failed design as an errored outcome
	// and finishes the run.
	ErrorPolicyContinue = eval.ErrorPolicyContinue
)

func (o RunOptions) internal() (eval.RunOptions, error) {
	fopt, err := o.Verify.internal()
	opt := eval.RunOptions{
		Shots:        o.Shots,
		Seed:         o.Seed,
		UseCorrector: o.UseCorrector,
		FPV:          fopt,
		MaxDesigns:   o.MaxDesigns,
		Workers:      o.Workers,
		Deadline:     o.Deadline,
		DesignBudget: o.DesignBudget,
		OnDesignDone: o.OnDesignDone,
		ShardIndex:   o.ShardIndex,
		ShardCount:   o.ShardCount,
		CacheDir:     o.CacheDir,
		ErrorPolicy:  o.ErrorPolicy,
		Retries:      o.Retries,
		Resume:       o.Resume,
	}
	if o.Verifier != nil {
		a := verifierAdapter{v: o.Verifier}
		opt.NewVerifier = func() eval.Verifier { return a }
	}
	return opt, err
}

// Runner evaluates one Generator over a benchmark corpus. Both consumption
// modes share one implementation — Run is a collector over the same
// stream Stream exposes — so they cannot drift apart.
type Runner struct {
	gen      eval.Generator
	examples []llm.Example
	corpus   []bench.Design
	opt      eval.RunOptions
	err      error // invalid options: Run and Stream return it
}

// NewRunner builds a Runner over the benchmark's test corpus and mined
// in-context examples.
func NewRunner(gen Generator, b *Benchmark, opt RunOptions) *Runner {
	r := &Runner{
		gen:      adaptGenerator(gen),
		examples: b.exp.ICL,
		corpus:   b.exp.Corpus,
	}
	r.opt, r.err = opt.internal()
	return r
}

// NewRunnerOver builds a Runner over an arbitrary design list and example
// set — for corpora the benchmark does not ship.
func NewRunnerOver(gen Generator, designs []Design, examples []Example, opt RunOptions) *Runner {
	r := &Runner{
		gen:      adaptGenerator(gen),
		examples: internalExamples(examples),
		corpus:   internalDesigns(designs),
	}
	r.opt, r.err = opt.internal()
	return r
}

// Run evaluates the corpus and returns the batch result. On error
// (including ctx.Err() after cancellation) the partial RunResult holds
// every outcome before the failure, exactly as a sequential walk would.
func (r *Runner) Run(ctx context.Context) (RunResult, error) {
	if r.err != nil {
		return RunResult{}, r.err
	}
	res, err := eval.Run(ctx, r.gen, r.examples, r.corpus, r.opt)
	return newRunResult(res), err
}

// Stream evaluates the corpus and yields one DesignOutcome per design in
// corpus order, each delivered the moment it (and every design before it)
// finishes — incremental results with the exact determinism guarantees of
// Run, which is itself a collector over this stream. The sequence ends
// after the last design or early with a single non-nil error: the first
// per-design failure, or ctx.Err() on cancellation. Breaking out of the
// loop early cancels and drains the worker pool before the iterator
// returns; no goroutines outlive the loop.
func (r *Runner) Stream(ctx context.Context) iter.Seq2[DesignOutcome, error] {
	return func(yield func(DesignOutcome, error) bool) {
		if r.err != nil {
			yield(DesignOutcome{}, r.err)
			return
		}
		for o, err := range eval.Stream(ctx, r.gen, r.examples, r.corpus, r.opt) {
			if err != nil {
				yield(DesignOutcome{}, err)
				return
			}
			if !yield(newDesignOutcome(o), nil) {
				return
			}
		}
	}
}
