package eval

import (
	"context"
	"fmt"
	"math/rand"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
)

// ExperimentOptions configure a full paper reproduction.
type ExperimentOptions struct {
	// Seed makes every stage deterministic. Default 1.
	Seed int64
	// MaxDesigns truncates the test corpus for quick runs (0 = all 100;
	// negative is an error).
	MaxDesigns int
	// FinetuneEpochs (0 = the paper's 20; negative is an error).
	FinetuneEpochs int
	// MineFPV bounds the miners used for ICL and fine-tuning corpora.
	MineFPV fpv.Options
	// Workers sets the evaluation worker-pool size for every run this
	// experiment launches (0 = runtime.GOMAXPROCS(0), 1 = sequential).
	Workers int
	// ShardIndex/ShardCount restrict every run to one contiguous corpus
	// shard (see RunOptions). ShardCount 0 means unsharded.
	ShardIndex int
	ShardCount int
}

func (o ExperimentOptions) withDefaults() ExperimentOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FinetuneEpochs == 0 {
		o.FinetuneEpochs = 20
	}
	if o.MineFPV.MaxProductStates == 0 {
		o.MineFPV = fpv.Options{
			MaxProductStates: 1500,
			MaxInputBits:     6,
			MaxInputSamples:  8,
			RandomRuns:       8,
			RandomDepth:      32,
			Seed:             o.Seed,
		}
	}
	return o
}

// Experiment caches the benchmark artifacts across runs so the figure
// benches don't rebuild the corpus per call.
type Experiment struct {
	Opt    ExperimentOptions
	Train  []bench.Design
	Corpus []bench.Design
	ICL    []llm.Example

	ftCorpus []llm.Example // mined 75% split for fine-tuning
	ftEval   []bench.Design
}

// NewExperiment builds the benchmark and mines the ICL examples.
// Cancelling ctx aborts the ICL mining with ctx.Err(). A negative
// MaxDesigns or FinetuneEpochs is an error, returned before any mining.
func NewExperiment(ctx context.Context, opt ExperimentOptions) (*Experiment, error) {
	if opt.MaxDesigns < 0 {
		return nil, fmt.Errorf("eval: negative MaxDesigns %d (0 means all designs)", opt.MaxDesigns)
	}
	if opt.FinetuneEpochs < 0 {
		return nil, fmt.Errorf("eval: negative FinetuneEpochs %d (0 means the default, 20)", opt.FinetuneEpochs)
	}
	opt = opt.withDefaults()
	icl, err := bench.BuildICL(ctx, bench.ICLOptions{Seed: opt.Seed, FPV: opt.MineFPV})
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		Opt:    opt,
		Train:  bench.TrainDesigns(),
		Corpus: bench.TestCorpus(),
		ICL:    icl,
	}
	if opt.MaxDesigns > 0 && opt.MaxDesigns < len(e.Corpus) {
		e.Corpus = e.Corpus[:opt.MaxDesigns]
	}
	return e, nil
}

// RunCOTS evaluates one COTS profile at one shot count with the full
// Fig. 4 pipeline (corrector on).
func (e *Experiment) RunCOTS(ctx context.Context, profile llm.Profile, shots int) (RunResult, error) {
	return Run(ctx, NewModelGenerator(profile), e.ICL, e.Corpus, RunOptions{
		Shots:        shots,
		Seed:         e.Opt.Seed,
		UseCorrector: true,
		Workers:      e.Opt.Workers,
		ShardIndex:   e.Opt.ShardIndex,
		ShardCount:   e.Opt.ShardCount,
	})
}

// RunAllCOTS produces the Fig. 6 / Fig. 7 grid: every COTS profile at 1-
// and 5-shot.
func (e *Experiment) RunAllCOTS(ctx context.Context) ([]RunResult, error) {
	var out []RunResult
	for _, p := range llm.COTSProfiles() {
		for _, k := range []int{1, 5} {
			r, err := e.RunCOTS(ctx, p, k)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// FinetuneSplit mines the fine-tuning corpus from 75% of AssertionBench
// and reserves 25% for evaluation (paper Sec. VI). The split and mining
// run once and are cached.
func (e *Experiment) FinetuneSplit(ctx context.Context) ([]llm.Example, []bench.Design, error) {
	if e.ftCorpus != nil {
		return e.ftCorpus, e.ftEval, nil
	}
	rng := rand.New(rand.NewSource(e.Opt.Seed))
	perm := rng.Perm(len(e.Corpus))
	cut := len(e.Corpus) * 3 / 4
	var trainIdx, evalIdx []int
	trainIdx = append(trainIdx, perm[:cut]...)
	evalIdx = append(evalIdx, perm[cut:]...)

	corpus := make([]llm.Example, 0, cut+len(e.Train))
	// The five training designs always belong to the tuning corpus, mined
	// exactly as NewExperiment mined them for e.ICL.
	corpus = append(corpus, e.ICL...)
	for _, i := range trainIdx {
		ex, err := bench.MineExample(ctx, e.Corpus[i], bench.ICLOptions{Seed: e.Opt.Seed, FPV: e.Opt.MineFPV, MaxAssertions: 6})
		if err != nil {
			return nil, nil, fmt.Errorf("mining %s: %w", e.Corpus[i].Name, err)
		}
		corpus = append(corpus, ex)
	}
	var evalSet []bench.Design
	for _, i := range evalIdx {
		evalSet = append(evalSet, e.Corpus[i])
	}
	e.ftCorpus, e.ftEval = corpus, evalSet
	return corpus, evalSet, nil
}

// FinetunedRun builds AssertionLLM from the given base profile and
// evaluates it on the held-out 25% with the Fig. 8 pipeline (corrector
// removed).
func (e *Experiment) FinetunedRun(ctx context.Context, base llm.Profile, shots int) (RunResult, llm.FinetuneReport, error) {
	corpus, evalSet, err := e.FinetuneSplit(ctx)
	if err != nil {
		return RunResult{}, llm.FinetuneReport{}, err
	}
	baseModel := llm.New(base)
	tuned, report := llm.Finetune(baseModel, corpus, llm.FinetuneOptions{
		Epochs: e.Opt.FinetuneEpochs,
		Seed:   e.Opt.Seed,
	})
	r, err := Run(ctx, ModelGenerator{Model: tuned}, e.ICL, evalSet, RunOptions{
		Shots:        shots,
		Seed:         e.Opt.Seed,
		UseCorrector: false,
		Workers:      e.Opt.Workers,
		ShardIndex:   e.Opt.ShardIndex,
		ShardCount:   e.Opt.ShardCount,
	})
	return r, report, err
}

// RunAllFinetuned produces the Fig. 9 grid: AssertionLLM over CodeLLaMa 2
// and LLaMa3-70B at 1- and 5-shot.
func (e *Experiment) RunAllFinetuned(ctx context.Context) ([]RunResult, error) {
	var out []RunResult
	for _, p := range []llm.Profile{llm.CodeLlama2(), llm.Llama3()} {
		for _, k := range []int{1, 5} {
			r, _, err := e.FinetunedRun(ctx, p, k)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}
