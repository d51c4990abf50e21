package eval

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
)

// TestRunOptionValidation: scheduler-adjacent knobs reject nonsense with
// actionable messages before any work starts.
func TestRunOptionValidation(t *testing.T) {
	e := testExperiment(t, 2)
	gen := NewModelGenerator(llm.GPT35())
	cases := []struct {
		name string
		mod  func(*RunOptions)
		want string
	}{
		{"negative shots", func(o *RunOptions) { o.Shots = -1 }, "negative Shots"},
		{"negative workers", func(o *RunOptions) { o.Workers = -2 }, "negative Workers"},
		{"negative deadline", func(o *RunOptions) { o.Deadline = -time.Second }, "negative Deadline"},
		{"negative design budget", func(o *RunOptions) { o.DesignBudget = -time.Millisecond }, "negative DesignBudget"},
		{"bad error policy", func(o *RunOptions) { o.ErrorPolicy = "sometimes" }, "unknown error policy"},
		{"negative retries", func(o *RunOptions) { o.Retries = -1 }, "negative Retries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := RunOptions{Shots: 1}
			tc.mod(&opt)
			_, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestExperimentOptionValidation: a negative design limit or epoch count
// is rejected before any mining. The context is already cancelled, so
// reaching the mining would return context.Canceled instead.
func TestExperimentOptionValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		opt  ExperimentOptions
		want string
	}{
		{"negative designs", ExperimentOptions{MaxDesigns: -1}, "negative MaxDesigns"},
		{"negative epochs", ExperimentOptions{FinetuneEpochs: -3}, "negative FinetuneEpochs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewExperiment(ctx, tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			if e != nil {
				t.Error("a rejected experiment was returned")
			}
		})
	}
}

// TestDesignBudgetTruncates: a per-design budget too small to decide
// anything yields a complete, ordered outcome list where every design is
// marked Truncated and its undecided verdicts are Unknown — an anytime
// answer, not an error.
func TestDesignBudgetTruncates(t *testing.T) {
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT4o())
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "sequential", 4: "parallel"}[workers], func(t *testing.T) {
			r, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{
				Shots: 5, UseCorrector: true, Workers: workers, DesignBudget: time.Nanosecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Designs) != 6 {
				t.Fatalf("budgeted run yielded %d outcomes, want 6", len(r.Designs))
			}
			for i, o := range r.Designs {
				if o.Index != i {
					t.Errorf("outcome %d carries index %d", i, o.Index)
				}
				if !o.Truncated {
					t.Errorf("design %d not marked Truncated under a 1ns budget", i)
				}
				for _, v := range o.Verdicts {
					if v != VerdictUnknown {
						t.Errorf("design %d holds decided verdict %v under a 1ns budget", i, v)
					}
				}
			}
			if r.Metrics.NPass+r.Metrics.NCEX+r.Metrics.NError != 0 {
				t.Errorf("1ns budget decided verdicts: %v", r.Metrics)
			}
		})
	}
}

// TestDeadlineTruncatesRun: an expired run deadline returns whatever is
// done plus Truncated stubs for the rest — full outcome count, global
// order intact, no stream error. Context timers fire asynchronously, so
// a design may legitimately complete before the 1ns deadline registers;
// we require all-but-one truncated rather than all.
func TestDeadlineTruncatesRun(t *testing.T) {
	e := testExperiment(t, 8)
	gen := NewModelGenerator(llm.GPT4o())
	r, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{
		Shots: 5, UseCorrector: true, Workers: 4, Deadline: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Designs) != 8 {
		t.Fatalf("deadline run yielded %d outcomes, want 8", len(r.Designs))
	}
	truncated := 0
	for i, o := range r.Designs {
		if o.Index != i {
			t.Errorf("outcome %d carries index %d", i, o.Index)
		}
		if o.Truncated {
			truncated++
		}
	}
	if truncated < len(r.Designs)-1 {
		t.Fatalf("only %d/%d outcomes truncated under a 1ns deadline", truncated, len(r.Designs))
	}
}

// TestStarvedBudgetConvergesOnRerun is the anytime-resumability contract:
// a starved run leaves the pipeline's caches in a state from which an
// unbudgeted rerun converges to exactly the result a never-budgeted
// process would have produced. The reference and the starved run each
// start from purged memory caches; the rerun starts from whatever the
// starved run left.
func TestStarvedBudgetConvergesOnRerun(t *testing.T) {
	gen := NewModelGenerator(llm.GPT4o())
	opt := RunOptions{Shots: 5, UseCorrector: true, Workers: 4, Seed: 11}

	// Reference from a process-state untouched by budgets.
	ref := func() RunResult {
		e := testExperiment(t, 8)
		bench.DefaultElab.Purge()
		r, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()

	e := testExperiment(t, 8)
	starved := opt
	starved.DesignBudget = time.Nanosecond
	bench.DefaultElab.Purge()
	sr, err := Run(context.Background(), gen, e.ICL, e.Corpus, starved)
	if err != nil {
		t.Fatal(err)
	}
	starvedCount := 0
	for _, o := range sr.Designs {
		if o.Truncated {
			starvedCount++
		}
	}
	if starvedCount == 0 {
		t.Fatal("starved run decided everything — budget not exercised")
	}

	resumed, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, resumed) {
		t.Errorf("rerun after starved budget differs from the unbudgeted reference\nref:     %+v\nresumed: %+v", ref.Metrics, resumed.Metrics)
	}
}

// TestOnDesignDoneObservesCompletions: the progress hook fires once per
// successful design with its global index, regardless of dispatch order.
func TestOnDesignDoneObservesCompletions(t *testing.T) {
	e := testExperiment(t, 7)
	gen := NewModelGenerator(llm.GPT35())
	var mu sync.Mutex
	seen := make(map[int]int)
	_, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{
		Shots: 1, Workers: 4,
		OnDesignDone: func(index int, wall, done time.Duration) {
			mu.Lock()
			seen[index]++
			mu.Unlock()
			if wall < 0 || done < wall {
				t.Errorf("design %d reported wall=%v done=%v", index, wall, done)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 {
		t.Fatalf("hook observed %d designs, want 7", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("design %d reported %d times", idx, n)
		}
	}
}
