package eval

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
)

// Golden-file tests pin the paper-facing numbers: a fixed-seed run's
// metrics and every figure/table renderer are compared byte-for-byte
// against checked-in goldens, so a refactor cannot silently drift the
// reproduced results. Regenerate intentionally with:
//
//	go test ./internal/eval -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden %s\n-- got --\n%s\n-- want --\n%s", name, path, got, want)
	}
}

// goldenRuns is the fixed-seed COTS grid over a truncated corpus. The
// grid is cached per test binary because four runs share it.
var goldenGrid []RunResult

func goldenResults(t *testing.T) []RunResult {
	t.Helper()
	if goldenGrid != nil {
		return goldenGrid
	}
	e := testExperiment(t, 10)
	for _, p := range []llm.Profile{llm.GPT35(), llm.GPT4o()} {
		for _, k := range []int{1, 5} {
			r, err := e.RunCOTS(context.Background(), p, k)
			if err != nil {
				t.Fatal(err)
			}
			goldenGrid = append(goldenGrid, r)
		}
	}
	return goldenGrid
}

func TestGoldenTableAndFigure3(t *testing.T) {
	corpus := bench.TestCorpus()
	goldenCompare(t, "table1", TableI(corpus))
	goldenCompare(t, "figure3", Figure3(corpus))
}

func TestGoldenFigures(t *testing.T) {
	results := goldenResults(t)
	goldenCompare(t, "figure6", Figure6(results))
	goldenCompare(t, "figure7", Figure7(results))
	goldenCompare(t, "observations", Observations(results, nil))
}

func TestGoldenMetricsJSON(t *testing.T) {
	results := goldenResults(t)
	type row struct {
		Model   string  `json:"model"`
		Shots   int     `json:"shots"`
		Metrics Metrics `json:"metrics"`
	}
	rows := make([]row, 0, len(results))
	for _, r := range results {
		rows = append(rows, row{Model: r.Model, Shots: r.Shots, Metrics: r.Metrics})
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "metrics", string(b)+"\n")
}

// fullExp is the default full-corpus experiment at seed 1. Both
// fine-tuning goldens read it, so the split is mined once per test binary.
var fullExp *Experiment

func fullExperiment(t *testing.T) *Experiment {
	t.Helper()
	if fullExp == nil {
		e, err := NewExperiment(context.Background(), ExperimentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fullExp = e
	}
	return fullExp
}

// TestGoldenFinetuneCorpus pins every example the fine-tuning split mines
// over the full corpus at seed 1: each design name followed by its mined
// assertion lines, in corpus order. The ICL goldens above cover only the
// five training designs; this one covers the 75% corpus split too.
func TestGoldenFinetuneCorpus(t *testing.T) {
	corpus, _, err := fullExperiment(t).FinetuneSplit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ex := range corpus {
		fmt.Fprintf(&b, "== %s\n", ex.Name)
		for _, a := range ex.Assertions {
			b.WriteString(a + "\n")
		}
	}
	goldenCompare(t, "finetune_corpus", b.String())
}

// TestGoldenFinetuned pins Fig. 9's fine-tuning at seed 1: for each base,
// the full FinetuneReport (every float at full precision) and the
// held-out metrics of the tuned model at 1 and 5 shots.
func TestGoldenFinetuned(t *testing.T) {
	e := fullExperiment(t)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, p := range []llm.Profile{llm.CodeLlama2(), llm.Llama3()} {
		fmt.Fprintf(&b, "== %s\n", p.Name)
		for _, k := range []int{1, 5} {
			r, report, err := e.FinetunedRun(context.Background(), p, k)
			if err != nil {
				t.Fatal(err)
			}
			if k == 1 {
				fmt.Fprintf(&b, "perplexity_before %s\n", g(report.PerplexityBefore))
				for i, v := range report.PerEpoch {
					fmt.Fprintf(&b, "epoch %d %s\n", i+1, g(v))
				}
				fmt.Fprintf(&b, "perplexity_after %s\n", g(report.PerplexityAfter))
				fmt.Fprintf(&b, "gain %s\n", g(report.Gain))
			}
			m, err := json.Marshal(r.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%d-shot %s %s\n", k, r.Model, m)
		}
	}
	goldenCompare(t, "finetuned", b.String())
}
