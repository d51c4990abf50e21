package assertionbench

import (
	"context"
	"fmt"

	"assertionbench/internal/bench"
	"assertionbench/internal/eval"
	"assertionbench/internal/llm"
)

// Options configure benchmark loading.
type Options struct {
	// Seed drives mining, generation and evaluation determinism.
	// Default 1.
	Seed int64
	// MaxDesigns truncates the 100-design test corpus (0 = all; negative
	// is an error).
	MaxDesigns int
	// Workers sets the evaluation worker-pool size used by the
	// Evaluate*/RunAll* conveniences (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// FinetuneEpochs for AssertionLLM construction (0 = the paper's 20;
	// negative is an error).
	FinetuneEpochs int
}

// Benchmark is loaded AssertionBench: the five training designs with
// formally verified assertions (the in-context examples) and the test
// corpus. Loading mines and proves the examples, so it is the expensive
// step; a Benchmark is immutable afterwards and safe to share.
type Benchmark struct {
	exp *eval.Experiment
}

// Load builds AssertionBench: the five train designs are mined with the
// GOLDMINE- and HARM-style miners and their assertions formally verified
// (paper Sec. III). Cancelling ctx aborts mining with ctx.Err().
func Load(ctx context.Context, opt Options) (*Benchmark, error) {
	e, err := eval.NewExperiment(ctx, eval.ExperimentOptions{
		Seed:           opt.Seed,
		MaxDesigns:     opt.MaxDesigns,
		Workers:        opt.Workers,
		FinetuneEpochs: opt.FinetuneEpochs,
	})
	if err != nil {
		return nil, err
	}
	return &Benchmark{exp: e}, nil
}

// TrainDesigns returns the five ICL training designs.
func (b *Benchmark) TrainDesigns() []Design { return newDesigns(b.exp.Train) }

// Corpus returns the test designs.
func (b *Benchmark) Corpus() []Design { return newDesigns(b.exp.Corpus) }

// Examples returns the mined in-context examples.
func (b *Benchmark) Examples() []Example { return newExamples(b.exp.ICL) }

// TestCorpus returns the 100-design test corpus without loading the full
// benchmark (no mining) — for reports and tooling that only need the
// designs, not the in-context examples.
func TestCorpus() []Design { return newDesigns(bench.TestCorpus()) }

// TrainingDesigns returns the five training designs without loading the
// full benchmark.
func TrainingDesigns() []Design { return newDesigns(bench.TrainDesigns()) }

// TrainArbiter is the paper's Fig. 1 two-port arbiter source, the
// walkthrough design of Sec. II.
func TrainArbiter() Design {
	for _, d := range bench.TrainDesigns() {
		if d.Name == "arb2" {
			return newDesign(d)
		}
	}
	return Design{}
}

// SecurityDesigns returns the lock-gated benchmark designs used by the
// security-mining direction (paper Sec. X (iii)).
func SecurityDesigns() []Design { return newDesigns(bench.SecurityDesigns()) }

// GenerateAssertions runs one k-shot generation call against an arbitrary
// design source using the benchmark's mined examples — the paper's Fig. 4
// pipeline up to (not including) the corrector. Use CorrectAssertions for
// stage 3 and VerifyAssertions for stage 4.
func (b *Benchmark) GenerateAssertions(ctx context.Context, gen Generator, designSource string, shots int, seed int64) (GenOutput, error) {
	if shots < 1 || shots > len(b.exp.ICL) {
		return GenOutput{}, fmt.Errorf("assertionbench: shots must be in 1..%d", len(b.exp.ICL))
	}
	return gen.Generate(ctx, GenRequest{
		Design:   DesignFromSource("", designSource),
		Examples: newExamples(b.exp.ICL[:shots]),
		Shots:    shots,
		Seed:     seed,
	})
}

// EvaluateCOTS evaluates one COTS profile at one shot count with the full
// Fig. 4 pipeline (corrector on) over the corpus.
func (b *Benchmark) EvaluateCOTS(ctx context.Context, p Profile, shots int) (RunResult, error) {
	r, err := b.exp.RunCOTS(ctx, profileInternal(p), shots)
	return newRunResult(r), err
}

// RunAllCOTS produces the Fig. 6 / Fig. 7 grid: every COTS profile at 1-
// and 5-shot.
func (b *Benchmark) RunAllCOTS(ctx context.Context) ([]RunResult, error) {
	rs, err := b.exp.RunAllCOTS(ctx)
	if err != nil {
		return nil, err
	}
	return newRunResults(rs), nil
}

// FinetuneReport summarizes AssertionLLM training.
type FinetuneReport struct {
	// PerplexityBefore/After on the held-out slice; Gain their ratio.
	PerplexityBefore float64
	PerplexityAfter  float64
	Gain             float64
	// PerEpoch is the held-out perplexity trajectory.
	PerEpoch []float64
}

func newFinetuneReport(r llm.FinetuneReport) FinetuneReport {
	return FinetuneReport{
		PerplexityBefore: r.PerplexityBefore,
		PerplexityAfter:  r.PerplexityAfter,
		Gain:             r.Gain,
		PerEpoch:         r.PerEpoch,
	}
}

// AssertionLLM fine-tunes the base profile on the mined 75% split of
// AssertionBench (paper Sec. VI) and returns the tuned model as a
// Generator, plus the training report.
func (b *Benchmark) AssertionLLM(ctx context.Context, base Profile) (Generator, FinetuneReport, error) {
	corpus, _, err := b.exp.FinetuneSplit(ctx)
	if err != nil {
		return nil, FinetuneReport{}, err
	}
	tuned, report := llm.Finetune(llm.New(profileInternal(base)), corpus, llm.FinetuneOptions{
		Epochs: b.exp.Opt.FinetuneEpochs,
		Seed:   b.exp.Opt.Seed,
	})
	return evalGenerator{g: eval.ModelGenerator{Model: tuned}}, newFinetuneReport(report), nil
}

// EvaluateFinetuned builds AssertionLLM from the base profile and
// evaluates it on the held-out 25% with the Fig. 8 pipeline (corrector
// removed).
func (b *Benchmark) EvaluateFinetuned(ctx context.Context, base Profile, shots int) (RunResult, FinetuneReport, error) {
	r, report, err := b.exp.FinetunedRun(ctx, profileInternal(base), shots)
	return newRunResult(r), newFinetuneReport(report), err
}

// RunAllFinetuned produces the Fig. 9 grid: AssertionLLM over CodeLLaMa 2
// and LLaMa3-70B at 1- and 5-shot.
func (b *Benchmark) RunAllFinetuned(ctx context.Context) ([]RunResult, error) {
	rs, err := b.exp.RunAllFinetuned(ctx)
	if err != nil {
		return nil, err
	}
	return newRunResults(rs), nil
}

// profileInternal unwraps a Profile for internal calls.
func profileInternal(p Profile) llm.Profile { return p.p }
