package eval

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"assertionbench/internal/bench"
	"assertionbench/internal/faults"
	"assertionbench/internal/llm"
)

// injectFault installs a FaultHook for the test and restores the nil
// hook afterwards. Hooks here are written inline rather than through
// internal/faultinject because that package imports eval (the seam it
// installs into), and an in-package test cannot close that cycle.
func injectFault(t *testing.T, hook func(design string, index, attempt int) error) {
	t.Helper()
	if FaultHook != nil {
		t.Fatal("FaultHook already installed")
	}
	FaultHook = hook
	t.Cleanup(func() { FaultHook = nil })
}

// panicOn returns a hook that panics design index's job on every
// attempt with a plain (permanent) panic value.
func panicOn(index int) func(string, int, int) error {
	return func(_ string, i, _ int) error {
		if i == index {
			panic("injected permanent panic")
		}
		return nil
	}
}

// TestErrorPolicyFailByteIdentity pins the acceptance contract: on a
// fault-free corpus, the default run, an explicit ErrorPolicyFail run,
// a run with retries armed, and a continue-policy run are all
// byte-identical to the plain sequential walk. Every run starts from
// purged memory caches.
func TestErrorPolicyFailByteIdentity(t *testing.T) {
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT4o())
	base := RunOptions{Shots: 5, UseCorrector: true, Seed: 3, Workers: 1}
	bench.DefaultElab.Purge()
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		mod  func(*RunOptions)
	}{
		{"explicit fail policy", func(o *RunOptions) { o.ErrorPolicy = ErrorPolicyFail }},
		{"retries armed", func(o *RunOptions) { o.Retries = 3 }},
		{"fail policy at 4 workers", func(o *RunOptions) { o.ErrorPolicy = ErrorPolicyFail; o.Workers = 4 }},
		{"continue policy fault-free", func(o *RunOptions) { o.ErrorPolicy = ErrorPolicyContinue; o.Workers = 4 }},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			opt := base
			tc.mod(&opt)
			bench.DefaultElab.Purge()
			r, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, r) {
				t.Errorf("run differs from the plain sequential reference\nref: %+v\ngot: %+v", ref.Metrics, r.Metrics)
			}
		})
	}
}

// TestFailPolicyShortCircuitsOnPanic: under the default policy a
// panicking design ends the run at its corpus position — the yielded
// prefix is exactly what a sequential walk would have kept, at any
// worker count — instead of killing the process.
func TestFailPolicyShortCircuitsOnPanic(t *testing.T) {
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT4o())
	base := RunOptions{Shots: 5, UseCorrector: true, Seed: 3, Workers: 1}
	bench.DefaultElab.Purge()
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, base)
	if err != nil {
		t.Fatal(err)
	}

	const bad = 2
	injectFault(t, panicOn(bad))
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "sequential", 4: "parallel"}[workers], func(t *testing.T) {
			opt := base
			opt.Workers = workers
			bench.DefaultElab.Purge()
			r, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
			if err == nil {
				t.Fatal("run with a panicking design succeeded")
			}
			if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), e.Corpus[bad].Name) {
				t.Errorf("error %v does not name the panicking design", err)
			}
			if !reflect.DeepEqual(r.Designs, ref.Designs[:bad]) {
				t.Errorf("prefix before the panic differs from the sequential reference (got %d outcomes)", len(r.Designs))
			}
		})
	}
}

// TestContinuePolicyStreamsErroredOutcome: under ErrorPolicyContinue a
// permanently failing design streams as an errored outcome at its
// corpus position, every other design matches the fault-free reference
// field for field, and the run finishes without error.
func TestContinuePolicyStreamsErroredOutcome(t *testing.T) {
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT4o())
	base := RunOptions{Shots: 5, UseCorrector: true, Seed: 3, Workers: 1}
	bench.DefaultElab.Purge()
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, base)
	if err != nil {
		t.Fatal(err)
	}

	const bad = 2
	injectFault(t, panicOn(bad))
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "sequential", 4: "parallel"}[workers], func(t *testing.T) {
			opt := base
			opt.Workers = workers
			opt.ErrorPolicy = ErrorPolicyContinue
			bench.DefaultElab.Purge()
			r, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Designs) != len(ref.Designs) {
				t.Fatalf("continue run yielded %d outcomes, want %d", len(r.Designs), len(ref.Designs))
			}
			for i, o := range r.Designs {
				if i == bad {
					if !o.Errored || !strings.Contains(o.Err, "panicked") {
						t.Errorf("design %d not streamed as an errored outcome: %+v", i, o)
					}
					if len(o.Verdicts) != 0 {
						t.Errorf("errored outcome carries %d verdicts", len(o.Verdicts))
					}
					continue
				}
				if !reflect.DeepEqual(o, ref.Designs[i]) {
					t.Errorf("unfaulted design %d differs from the reference", i)
				}
			}
			if r.Metrics.NErrored != 1 {
				t.Errorf("NErrored = %d, want 1", r.Metrics.NErrored)
			}
		})
	}
}

// TestRetriesAbsorbTransientFaults: a fault injected on the first two
// attempts of one design vanishes entirely under Retries >= 2 — the
// run equals the fault-free reference — while Retries = 1 exhausts and
// surfaces through the error policy.
func TestRetriesAbsorbTransientFaults(t *testing.T) {
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT4o())
	base := RunOptions{Shots: 5, UseCorrector: true, Seed: 3, Workers: 4}
	bench.DefaultElab.Purge()
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, base)
	if err != nil {
		t.Fatal(err)
	}

	const flaky = 1
	injectFault(t, func(_ string, i, attempt int) error {
		if i == flaky && attempt <= 2 {
			return faults.Transientf("injected transient fault (attempt %d)", attempt)
		}
		return nil
	})

	opt := base
	opt.Retries = 2
	bench.DefaultElab.Purge()
	r, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, r) {
		t.Error("retried run differs from the fault-free reference")
	}

	opt.Retries = 1
	if _, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt); err == nil {
		t.Error("run with too few retries succeeded under a 2-attempt fault")
	}

	opt.ErrorPolicy = ErrorPolicyContinue
	r, err = Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Designs) != 6 || !r.Designs[flaky].Errored {
		t.Errorf("exhausted retries under continue did not stream an errored outcome: %+v", r.Designs[flaky])
	}

	// A permanent (non-transient) failure must not burn retries at all:
	// the hook counts attempts and the job fails on the first.
	FaultHook = nil
	var mu sync.Mutex
	attempts := 0
	injected := func(_ string, i, _ int) error {
		if i != flaky {
			return nil
		}
		mu.Lock()
		attempts++
		mu.Unlock()
		panic("permanent")
	}
	FaultHook = injected
	opt = base
	opt.Retries = 5
	if _, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt); err == nil {
		t.Error("permanently panicking design succeeded")
	}
	if attempts != 1 {
		t.Errorf("permanent failure consumed %d attempts, want 1", attempts)
	}
}

// TestBackoffIsPureAndBounded: the retry delay is a pure function of
// (seed, index, attempt) with the documented envelope — equal inputs
// give equal delays (no wall clock, no shared RNG), different indices
// decorrelate, and every delay stays within [base/2, base] for the
// capped exponential base.
func TestBackoffIsPureAndBounded(t *testing.T) {
	for attempt := 1; attempt <= 12; attempt++ {
		base := time.Millisecond << min(attempt-1, 7)
		if base > 100*time.Millisecond {
			base = 100 * time.Millisecond
		}
		for _, seed := range []int64{1, 7, 99} {
			for _, idx := range []int{0, 3, 64} {
				d1 := backoff(seed, idx, attempt)
				d2 := backoff(seed, idx, attempt)
				if d1 != d2 {
					t.Fatalf("backoff(%d,%d,%d) not deterministic: %v vs %v", seed, idx, attempt, d1, d2)
				}
				if d1 < base/2 || d1 > base {
					t.Errorf("backoff(%d,%d,%d) = %v outside [%v, %v]", seed, idx, attempt, d1, base/2, base)
				}
			}
		}
	}
	if backoff(1, 0, 1) == backoff(1, 1, 1) && backoff(1, 0, 2) == backoff(1, 1, 2) {
		t.Error("jitter does not vary with the design index")
	}
}

// TestPanicPathLeaksNoGoroutines: a design that panics mid-run leaves
// no goroutines behind and the reorder buffer drained, at 1 and 4
// workers, under both error policies (extends the cancel_test.go
// counting harness to the fault path).
func TestPanicPathLeaksNoGoroutines(t *testing.T) {
	e := testExperiment(t, 8)
	gen := NewModelGenerator(llm.GPT4o())
	injectFault(t, panicOn(3))
	for _, workers := range []int{1, 4} {
		for _, policy := range []string{ErrorPolicyFail, ErrorPolicyContinue} {
			t.Run(map[int]string{1: "sequential", 4: "parallel"}[workers]+"/"+policy, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				r, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{
					Shots: 1, Workers: workers, ErrorPolicy: policy,
				})
				switch policy {
				case ErrorPolicyFail:
					if err == nil {
						t.Fatal("fail policy swallowed the panic")
					}
					if len(r.Designs) != 3 {
						t.Errorf("prefix = %d outcomes, want 3", len(r.Designs))
					}
				case ErrorPolicyContinue:
					if err != nil {
						t.Fatal(err)
					}
					if len(r.Designs) != 8 {
						t.Errorf("continue run yielded %d outcomes, want 8", len(r.Designs))
					}
				}
				waitForGoroutines(t, baseline)
			})
		}
	}
}
