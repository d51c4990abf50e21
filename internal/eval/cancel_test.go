package eval

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"assertionbench/internal/llm"
)

// waitForGoroutines polls until the goroutine count returns to (or below)
// the baseline, failing the test after the deadline. Cheaper than a full
// goleak dependency and sufficient for the runner's pool, whose workers
// exit within one design job of cancellation.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunCancellation: cancelling mid-run stops the workers promptly
// (bounded by one design job each), surfaces ctx.Err(), and leaks no
// goroutines.
func TestRunCancellation(t *testing.T) {
	e := testExperiment(t, 16)
	gen := NewModelGenerator(llm.GPT4o())
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var got error
	n := 0
	for _, err := range Stream(ctx, gen, e.ICL, e.Corpus, RunOptions{Shots: 5, UseCorrector: true, Workers: 4}) {
		if err != nil {
			got = err
			break
		}
		// Cancel as soon as the first outcome lands, mid-corpus.
		n++
		cancel()
	}
	cancel()
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("stream after cancel ended with %v, want context.Canceled", got)
	}
	if n == 0 || n >= 16 {
		t.Fatalf("cancellation was not mid-run: %d outcomes yielded", n)
	}
	waitForGoroutines(t, baseline)
}

// TestRunPreCanceledContext: a run that starts canceled does no work and
// returns ctx.Err() with an empty partial result.
func TestRunPreCanceledContext(t *testing.T) {
	e := testExperiment(t, 4)
	gen := NewModelGenerator(llm.GPT35())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Run(ctx, gen, e.ICL, e.Corpus, RunOptions{Shots: 1, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(r.Designs) != 0 {
		t.Errorf("pre-canceled run produced %d outcomes", len(r.Designs))
	}
}

// TestStreamEarlyBreakDrainsWorkers: a consumer that stops iterating
// mid-stream must not leak the pool. The subtest is named for the
// dispatcher's static-cost order.
func TestStreamEarlyBreakDrainsWorkers(t *testing.T) {
	e := testExperiment(t, 12)
	gen := NewModelGenerator(llm.GPT35())
	t.Run("cost", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		n := 0
		for _, err := range Stream(context.Background(), gen, e.ICL, e.Corpus, RunOptions{Shots: 1, Workers: 4}) {
			if err != nil {
				t.Fatal(err)
			}
			n++
			if n == 2 {
				break
			}
		}
		if n != 2 {
			t.Fatalf("broke after %d outcomes", n)
		}
		waitForGoroutines(t, baseline)
	})
}

// TestMidRunCancellationDrains: cancelling while eight workers are
// taking jobs from the shared counter, out of corpus order, stops the
// pool within one design job each, surfaces ctx.Err(), and leaks
// nothing.
func TestMidRunCancellationDrains(t *testing.T) {
	e := testExperiment(t, 20)
	gen := NewModelGenerator(llm.GPT4o())
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var got error
	n := 0
	for _, err := range Stream(ctx, gen, e.ICL, e.Corpus, RunOptions{Shots: 5, UseCorrector: true, Workers: 8}) {
		if err != nil {
			got = err
			break
		}
		n++
		if n == 3 {
			cancel()
		}
	}
	cancel()
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("stream after mid-run cancel ended with %v, want context.Canceled", got)
	}
	if n < 3 || n >= 20 {
		t.Fatalf("cancellation was not mid-run: %d outcomes yielded", n)
	}
	waitForGoroutines(t, baseline)
}

// TestSequentialRunCancellation covers the workers<=1 fast path, which
// has no pool but must honor the same contract.
func TestSequentialRunCancellation(t *testing.T) {
	e := testExperiment(t, 8)
	gen := NewModelGenerator(llm.GPT35())
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	var got error
	for _, err := range Stream(ctx, gen, e.ICL, e.Corpus, RunOptions{Shots: 1, Workers: 1}) {
		if err != nil {
			got = err
			break
		}
		n++
		cancel()
	}
	cancel()
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("sequential stream ended with %v, want context.Canceled", got)
	}
	if n != 1 {
		t.Fatalf("sequential stream yielded %d outcomes after cancel, want 1", n)
	}
}
