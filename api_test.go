package assertionbench_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"assertionbench"
)

func loadBenchmark(t *testing.T, n int) *assertionbench.Benchmark {
	t.Helper()
	b, err := assertionbench.Load(context.Background(), assertionbench.Options{MaxDesigns: n})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestProfileByName(t *testing.T) {
	cases := map[string]string{
		"gpt3.5":     "GPT-3.5",
		"gpt-3.5":    "GPT-3.5",
		"gpt4o":      "GPT-4o",
		"GPT-4o":     "GPT-4o",
		"codellama":  "CodeLLaMa 2",
		"codellama2": "CodeLLaMa 2",
		"llama3":     "LLaMa3-70B",
		"llama3-70b": "LLaMa3-70B",
	}
	for alias, want := range cases {
		p, err := assertionbench.ProfileByName(alias)
		if err != nil || p.Name() != want {
			t.Errorf("ProfileByName(%q) = %v, %v; want %s", alias, p.Name(), err, want)
		}
	}
	_, err := assertionbench.ProfileByName("claude")
	if err == nil {
		t.Fatal("unknown model must fail")
	}
	// The error must teach the valid spellings.
	for _, want := range []string{"GPT-4o", "gpt4o", "LLaMa3-70B"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

func TestBenchmarkShape(t *testing.T) {
	b := loadBenchmark(t, 5)
	if len(b.TrainDesigns()) != 5 || len(b.Corpus()) != 5 || len(b.Examples()) != 5 {
		t.Fatalf("benchmark shape: %d train, %d corpus, %d examples",
			len(b.TrainDesigns()), len(b.Corpus()), len(b.Examples()))
	}
	if len(assertionbench.TestCorpus()) != 100 {
		t.Errorf("full test corpus has %d designs", len(assertionbench.TestCorpus()))
	}
	if arb := assertionbench.TrainArbiter(); arb.Name != "arb2" || arb.Source == "" {
		t.Errorf("TrainArbiter = %q", arb.Name)
	}
}

func TestGenerateCorrectVerify(t *testing.T) {
	ctx := context.Background()
	b := loadBenchmark(t, 3)
	design := assertionbench.TrainArbiter()
	gen := assertionbench.NewModelGenerator(assertionbench.GPT4o())
	out, err := b.GenerateAssertions(ctx, gen, design.Source, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assertions) == 0 {
		t.Fatal("generation produced nothing")
	}
	corrected := assertionbench.CorrectAssertions(design.Source, out.Assertions)
	if len(corrected) != len(out.Assertions) {
		t.Fatalf("correction shape: %d raw, %d corrected", len(out.Assertions), len(corrected))
	}
	results, err := assertionbench.VerifyAssertions(ctx, design.Source, corrected, assertionbench.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(corrected) {
		t.Fatalf("%d results for %d assertions", len(results), len(corrected))
	}
}

func TestVerifyAssertionsStatuses(t *testing.T) {
	// The facade must agree with the engine called directly.
	design := assertionbench.TrainArbiter()
	results, err := assertionbench.VerifyAssertions(context.Background(), design.Source, []string{
		"rst == 1 |=> gnt_ == 0",
		"req2 == 0 |-> gnt2 == 0",
		"bogus == 1 |-> gnt1 == 1",
	}, assertionbench.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []assertionbench.VerifyStatus{
		assertionbench.StatusProven,
		assertionbench.StatusProven,
		assertionbench.StatusError,
	}
	for i, w := range want {
		if results[i].Status != w {
			t.Errorf("result %d = %v, want %v", i, results[i].Status, w)
		}
	}
	if !assertionbench.StatusProven.IsPass() || assertionbench.StatusCEX.IsPass() {
		t.Error("IsPass misclassifies")
	}
}

func TestVerifyRejectsBadDesign(t *testing.T) {
	if _, err := assertionbench.VerifyAssertions(context.Background(), "not verilog at all", []string{"a |-> b"}, assertionbench.VerifyOptions{}); err == nil {
		t.Fatal("unparseable design must fail")
	}
}

func TestMineAssertionsFacade(t *testing.T) {
	design := assertionbench.TrainArbiter()
	mined, err := assertionbench.MineAssertions(context.Background(), design.Source, assertionbench.MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) == 0 {
		t.Fatal("mining the arbiter found nothing")
	}
	if len(mined) > 16 {
		t.Errorf("default MaxAssertions is 16, got %d from the combined miners", len(mined))
	}
	seen := map[string]bool{}
	for _, m := range mined {
		if seen[m.Assertion] {
			t.Errorf("duplicate %q", m.Assertion)
		}
		seen[m.Assertion] = true
		if !m.Status.IsPass() {
			t.Errorf("unproven mined assertion %q (%v)", m.Assertion, m.Status)
		}
	}
}

// TestMineAssertionsRejectsNegativeCounts: a negative count is an error
// for every miner, where it used to panic (TraceCycles) or quietly return
// one assertion (MaxAssertions).
func TestMineAssertionsRejectsNegativeCounts(t *testing.T) {
	design := assertionbench.TrainArbiter()
	for _, miner := range []string{"both", "goldmine", "harm", "security"} {
		for _, opt := range []assertionbench.MineOptions{
			{Miner: miner, TraceCycles: -1},
			{Miner: miner, MaxAssertions: -1},
		} {
			mined, err := assertionbench.MineAssertions(context.Background(), design.Source, opt)
			if err == nil {
				t.Errorf("%+v: %d assertions and no error", opt, len(mined))
			}
		}
	}
}

// TestVerifyRejectsNegativeBounds: a negative bound in any VerifyOptions
// field is an error before any search, at every façade entry point that
// takes one; a verifier from NewVerifier reports it as StatusError. The
// engine fills only zero fields with defaults, so a negative bound used
// to reach the search: MaxProductStates -1 turned a counter-example
// into a one-state bounded pass, MaxInputSamples -5 panicked, and a
// negative RandomRuns or RandomDepth skipped the hunt.
func TestVerifyRejectsNegativeBounds(t *testing.T) {
	ctx := context.Background()
	design := assertionbench.TrainArbiter()
	prop := "req1 == 1 && req2 == 0 |-> gnt1 == 1"
	for _, opt := range []assertionbench.VerifyOptions{
		{MaxProductStates: -1},
		{MaxInputBits: -1},
		{MaxInputSamples: -5, MaxInputBits: 1},
		{RandomRuns: -1},
		{RandomDepth: -1},
	} {
		if rs, err := assertionbench.VerifyAssertions(ctx, design.Source, []string{prop}, opt); err == nil {
			t.Errorf("VerifyAssertions %+v: %d results and no error", opt, len(rs))
		}
		if r := assertionbench.NewVerifier(opt).Verify(ctx, design, prop); r.Status != assertionbench.StatusError || r.Err == nil {
			t.Errorf("NewVerifier %+v: status %s, err %v; want StatusError", opt, r.Status, r.Err)
		}
		if mined, err := assertionbench.MineAssertions(ctx, design.Source, assertionbench.MineOptions{Verify: opt}); err == nil {
			t.Errorf("MineAssertions %+v: %d assertions and no error", opt, len(mined))
		}
		if _, err := assertionbench.MeasureCoverage(ctx, design.Source, []string{prop},
			assertionbench.CoverageOptions{VerifiedOnly: true, Verify: opt}); err == nil {
			t.Errorf("MeasureCoverage %+v: no error", opt)
		}
		gen := assertionbench.NewModelGenerator(assertionbench.GPT35())
		runner := assertionbench.NewRunnerOver(gen, []assertionbench.Design{design}, nil,
			assertionbench.RunOptions{Shots: 1, Verify: opt})
		if res, err := runner.Run(ctx); err == nil {
			t.Errorf("Runner %+v: %d outcomes and no error", opt, len(res.Outcomes))
		}
	}
}

// TestLoadRejectsNegativeOptions: a negative design limit or epoch count
// is an error from Load, where it used to run every design or train
// nothing.
func TestLoadRejectsNegativeOptions(t *testing.T) {
	for _, opt := range []assertionbench.Options{{MaxDesigns: -1}, {FinetuneEpochs: -3}} {
		if _, err := assertionbench.Load(context.Background(), opt); err == nil {
			t.Errorf("%+v: no error", opt)
		}
	}
}

// TestRunRejectsNegativeMaxDesigns: a negative design limit is an error,
// as it is at Load, not a run over every design.
func TestRunRejectsNegativeMaxDesigns(t *testing.T) {
	b := loadBenchmark(t, 3)
	gen := assertionbench.NewModelGenerator(assertionbench.GPT35())
	res, err := assertionbench.NewRunner(gen, b, assertionbench.RunOptions{Shots: 1, MaxDesigns: -1}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "negative MaxDesigns") {
		t.Fatalf("err = %v with %d outcomes, want a negative-MaxDesigns error", err, len(res.Outcomes))
	}
}

// TestRunnerStreamMatchesRun is the public-level acceptance check: the
// collected stream equals the batch result for sequential, parallel, and
// sharded configurations at the same seed. Every run starts from purged
// caches, so the stream verifies its own verdicts.
func TestRunnerStreamMatchesRun(t *testing.T) {
	ctx := context.Background()
	b := loadBenchmark(t, 8)
	gen := assertionbench.NewModelGenerator(assertionbench.GPT35())
	for _, cfg := range []struct {
		name string
		opt  assertionbench.RunOptions
	}{
		{"sequential", assertionbench.RunOptions{Shots: 1, UseCorrector: true, Seed: 2, Workers: 1}},
		{"parallel", assertionbench.RunOptions{Shots: 1, UseCorrector: true, Seed: 2, Workers: 4}},
		{"sharded", assertionbench.RunOptions{Shots: 1, UseCorrector: true, Seed: 2, Workers: 2, ShardIndex: 1, ShardCount: 2}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			runner := assertionbench.NewRunner(gen, b, cfg.opt)
			assertionbench.PurgeCaches()
			batch, err := runner.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			assertionbench.PurgeCaches()
			streamed := assertionbench.RunResult{Generator: batch.Generator, Shots: batch.Shots}
			for o, err := range runner.Stream(ctx) {
				if err != nil {
					t.Fatal(err)
				}
				streamed.Metrics.Merge(o.Metrics())
				streamed.Outcomes = append(streamed.Outcomes, o)
			}
			if !reflect.DeepEqual(batch, streamed) {
				t.Errorf("stream differs from batch\nbatch:  %+v\nstream: %+v", batch.Metrics, streamed.Metrics)
			}
		})
	}
}

// echoGenerator is a caller-supplied Generator: it emits one tautology
// per design, proving the interface is implementable outside the module's
// internals.
type echoGenerator struct{}

func (echoGenerator) Name() string { return "echo" }

func (echoGenerator) Generate(_ context.Context, req assertionbench.GenRequest) (assertionbench.GenOutput, error) {
	// Derive a signal from the design source the cheap way: reuse the
	// prompt examples' shape. A constant tautology needs no signals.
	return assertionbench.GenOutput{
		Assertions: []string{fmt.Sprintf("1 == 1 |-> %d == %d;", req.Shots, req.Shots)},
	}, nil
}

func TestCustomGeneratorThroughRunner(t *testing.T) {
	ctx := context.Background()
	b := loadBenchmark(t, 4)
	runner := assertionbench.NewRunner(echoGenerator{}, b, assertionbench.RunOptions{Shots: 1, Workers: 2})
	r, err := runner.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Generator != "echo" {
		t.Errorf("run labelled %q", r.Generator)
	}
	if len(r.Outcomes) != 4 || r.Metrics.Total() != 4 {
		t.Fatalf("custom generator shape: %d outcomes, %d classified", len(r.Outcomes), r.Metrics.Total())
	}
	if r.Metrics.NPass != 4 {
		t.Errorf("tautologies must all pass: %+v", r.Metrics)
	}
}

// TestMinerGeneratorPublic: the miner-as-Generator path end to end at the
// public level.
func TestMinerGeneratorPublic(t *testing.T) {
	ctx := context.Background()
	b := loadBenchmark(t, 4)
	runner := assertionbench.NewRunner(assertionbench.NewGoldMineGenerator(), b, assertionbench.RunOptions{Shots: 1, UseCorrector: true, Workers: 2})
	r, err := runner.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Generator != "GOLDMINE" {
		t.Errorf("run labelled %q", r.Generator)
	}
	if r.Metrics.Total() == 0 {
		t.Fatal("miner produced no classified assertions")
	}
	if r.Metrics.NError > 0 {
		t.Errorf("FPV-filtered miner output produced error verdicts: %+v", r.Metrics)
	}
}

func TestEvaluateCOTSSmall(t *testing.T) {
	b := loadBenchmark(t, 4)
	r, err := b.EvaluateCOTS(context.Background(), assertionbench.GPT35(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Generator != "GPT-3.5" || r.Shots != 1 || r.Metrics.Total() == 0 {
		t.Fatalf("EvaluateCOTS shape wrong: %+v", r)
	}
}

func TestAssertionLLMFacade(t *testing.T) {
	ctx := context.Background()
	b := loadBenchmark(t, 8)
	tuned, report, err := b.AssertionLLM(ctx, assertionbench.CodeLlama2())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tuned.Name(), "AssertionLLM") {
		t.Errorf("tuned generator named %q", tuned.Name())
	}
	if report.PerplexityAfter >= report.PerplexityBefore {
		t.Errorf("perplexity did not drop: %.1f -> %.1f", report.PerplexityBefore, report.PerplexityAfter)
	}
	r, _, err := b.EvaluateFinetuned(ctx, assertionbench.CodeLlama2(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Generator, "AssertionLLM") {
		t.Errorf("run generator = %q", r.Generator)
	}
}

func TestFigureRenderersPublic(t *testing.T) {
	corpus := assertionbench.TestCorpus()
	if s := assertionbench.TableI(corpus); !strings.Contains(s, "ca_prng") {
		t.Error("Table I missing expected rows")
	}
	runs := []assertionbench.RunResult{
		{Generator: "GPT-3.5", Shots: 1, Metrics: assertionbench.Metrics{NPass: 2, NCEX: 5, NError: 3}},
		{Generator: "GPT-3.5", Shots: 5, Metrics: assertionbench.Metrics{NPass: 4, NCEX: 4, NError: 2}},
	}
	if s := assertionbench.Figure6(runs); !strings.Contains(s, "1-shot") {
		t.Error("Figure 6 missing shot rows")
	}
	if s := assertionbench.Observations(runs, nil); !strings.Contains(s, "Obs 1") {
		t.Error("Observations empty")
	}
}

func TestShardDesignsPublic(t *testing.T) {
	corpus := assertionbench.TestCorpus()
	var merged []assertionbench.Design
	for i := 0; i < 3; i++ {
		s, err := assertionbench.ShardDesigns(corpus, i, 3)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, s...)
	}
	if !reflect.DeepEqual(corpus, merged) {
		t.Error("shards do not concatenate to the corpus")
	}
	if _, err := assertionbench.ShardDesigns(corpus, 5, 3); err == nil {
		t.Error("out-of-range shard must fail")
	}
}
