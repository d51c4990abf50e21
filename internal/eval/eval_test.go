package eval

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		r fpv.Result
		v Verdict
	}{
		{fpv.Result{Status: fpv.StatusProven}, VerdictPass},
		{fpv.Result{Status: fpv.StatusVacuous}, VerdictPass},
		{fpv.Result{Status: fpv.StatusBoundedPass}, VerdictPass},
		{fpv.Result{Status: fpv.StatusCEX}, VerdictCEX},
		{fpv.Result{Status: fpv.StatusError}, VerdictError},
	}
	for _, tc := range cases {
		if got := Classify(tc.r); got != tc.v {
			t.Errorf("Classify(%v) = %v, want %v", tc.r.Status, got, tc.v)
		}
	}
}

func TestMetricsFractions(t *testing.T) {
	var m Metrics
	for i := 0; i < 6; i++ {
		m.Add(VerdictPass)
	}
	for i := 0; i < 3; i++ {
		m.Add(VerdictCEX)
	}
	m.Add(VerdictError)
	if m.Total() != 10 {
		t.Fatalf("total = %d", m.Total())
	}
	if m.Pass() != 0.6 || m.CEX() != 0.3 || m.Error() != 0.1 {
		t.Errorf("fractions = %v", m)
	}
	sum := m.Pass() + m.CEX() + m.Error()
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions must sum to 1, got %f", sum)
	}
}

func testExperiment(t *testing.T, n int) *Experiment {
	t.Helper()
	e, err := NewExperiment(context.Background(), ExperimentOptions{MaxDesigns: n})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRunPipelineSmall(t *testing.T) {
	e := testExperiment(t, 8)
	r, err := e.RunCOTS(context.Background(), llm.GPT4o(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Model != "GPT-4o" || r.Shots != 1 {
		t.Errorf("run labelled %s/%d", r.Model, r.Shots)
	}
	if len(r.Designs) != 8 {
		t.Fatalf("evaluated %d designs, want 8", len(r.Designs))
	}
	if r.Metrics.Total() == 0 {
		t.Fatal("no assertions classified")
	}
	for _, d := range r.Designs {
		if len(d.Verdicts) != len(d.Corrected) {
			t.Errorf("%s: %d verdicts for %d corrected lines", d.Design, len(d.Verdicts), len(d.Corrected))
		}
	}
}

// TestRunDeterministic: two runs at the same seed, each from purged
// memory caches, report the same metrics.
func TestRunDeterministic(t *testing.T) {
	e := testExperiment(t, 6)
	bench.DefaultElab.Purge()
	a, err := e.RunCOTS(context.Background(), llm.GPT35(), 5)
	if err != nil {
		t.Fatal(err)
	}
	bench.DefaultElab.Purge()
	b, err := e.RunCOTS(context.Background(), llm.GPT35(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Errorf("same seed, different metrics: %v vs %v", a.Metrics, b.Metrics)
	}
}

func TestRunRejectsTooManyShots(t *testing.T) {
	e := testExperiment(t, 2)
	gen := NewModelGenerator(llm.GPT35())
	if _, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{Shots: 9}); err == nil {
		t.Fatal("9-shot with 5 examples must fail")
	}
}

func TestCorrectorAblation(t *testing.T) {
	// The corrector must strictly reduce the Error fraction (stage 3 of
	// Fig. 4 exists for a reason).
	e := testExperiment(t, 12)
	gen := NewModelGenerator(llm.GPT35())
	with, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{Shots: 1, UseCorrector: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{Shots: 1, UseCorrector: false})
	if err != nil {
		t.Fatal(err)
	}
	if with.Metrics.Error() >= without.Metrics.Error() {
		t.Errorf("corrector did not reduce errors: with=%.3f without=%.3f",
			with.Metrics.Error(), without.Metrics.Error())
	}
}

func TestFinetuneSplitIsDisjointAndCached(t *testing.T) {
	e := testExperiment(t, 16)
	corpus1, evalSet1, err := e.FinetuneSplit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	corpus2, evalSet2, err := e.FinetuneSplit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus1) != len(corpus2) || len(evalSet1) != len(evalSet2) {
		t.Fatal("FinetuneSplit not cached/deterministic")
	}
	// ~75/25 split of the corpus plus the 5 train designs.
	if len(evalSet1) != 4 { // 16/4
		t.Errorf("eval split has %d designs, want 4", len(evalSet1))
	}
	if len(corpus1) != 12+5 {
		t.Errorf("tuning corpus has %d examples, want 17", len(corpus1))
	}
	// The training designs are mined once, for the ICL examples.
	if !reflect.DeepEqual(corpus1[:len(e.ICL)], e.ICL) {
		t.Error("the tuning corpus does not start with the ICL examples")
	}
	inEval := map[string]bool{}
	for _, d := range evalSet1 {
		inEval[d.Name] = true
	}
	for _, ex := range corpus1 {
		if inEval[ex.Name] {
			t.Errorf("design %s leaked from eval split into tuning corpus", ex.Name)
		}
	}
}

func TestFigureRenderers(t *testing.T) {
	corpus := bench.TestCorpus()
	if s := TableI(corpus); !strings.Contains(s, "ca_prng") || !strings.Contains(s, "Sequential") {
		t.Error("Table I missing expected rows")
	}
	if s := Figure3(corpus); !strings.Contains(s, "fifo_mem.v") {
		t.Error("Figure 3 missing designs")
	}
	runs := []RunResult{
		{Model: "GPT-3.5", Shots: 1, Metrics: Metrics{NPass: 2, NCEX: 5, NError: 3}},
		{Model: "GPT-3.5", Shots: 5, Metrics: Metrics{NPass: 4, NCEX: 4, NError: 2}},
	}
	if s := Figure6(runs); !strings.Contains(s, "1-shot") || !strings.Contains(s, "5-shot") {
		t.Error("Figure 6 missing shot rows")
	}
	if s := Figure7(runs); !strings.Contains(s, "GPT-3.5") {
		t.Error("Figure 7 missing model rows")
	}
	if s := Figure9(runs); !strings.Contains(s, "pass=") {
		t.Error("Figure 9 missing metrics")
	}
	obs := Observations(runs, nil)
	if !strings.Contains(obs, "Obs 1") || !strings.Contains(obs, "2.00x") {
		t.Errorf("Observations missing the 1->5 shot ratio:\n%s", obs)
	}
}
