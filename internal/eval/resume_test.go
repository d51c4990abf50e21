package eval

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/verilog"
)

// countingVerifier wraps the real engine and counts Verify/VerifyBatch
// calls per design name, shared across all workers' instances. Resume
// tests use it to prove decided designs are served from the manifest
// without re-verification.
type countingVerifier struct {
	inner Verifier
	mu    *sync.Mutex
	calls map[string]int
}

func (c countingVerifier) note(d bench.Design) {
	c.mu.Lock()
	c.calls[d.Name]++
	c.mu.Unlock()
}

func (c countingVerifier) Verify(ctx context.Context, d bench.Design, nl *verilog.Netlist, a string, opt fpv.Options) fpv.Result {
	c.note(d)
	return c.inner.Verify(ctx, d, nl, a, opt)
}

func (c countingVerifier) VerifyBatch(ctx context.Context, d bench.Design, nl *verilog.Netlist, as []string, opt fpv.Options) []fpv.Result {
	c.note(d)
	return c.inner.(BatchVerifier).VerifyBatch(ctx, d, nl, as, opt)
}

// detachStore makes sure no artifact store is attached for the test's
// reference runs and restores the detached state afterwards (the
// attachment is process-wide and sticky).
func detachStore(t *testing.T) {
	t.Helper()
	if err := bench.SetCacheDir(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bench.SetCacheDir("") })
}

// TestResumeSkipsDecidedDesigns is the crash-recovery acceptance test:
// a run killed after 4 of 8 designs (simulated by breaking out of the
// stream, then purging all in-memory caches as a process restart
// would) resumes with -resume semantics — the 4 decided designs are
// served from the run manifest with their verifiers never invoked, the
// other 4 are evaluated, and the final result is field-for-field equal
// to a never-interrupted run.
func TestResumeSkipsDecidedDesigns(t *testing.T) {
	detachStore(t)
	e := testExperiment(t, 8)
	gen := NewModelGenerator(llm.GPT4o())
	base := RunOptions{Shots: 2, UseCorrector: true, Seed: 5, Workers: 1}

	bench.DefaultElab.Purge()
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, base)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: sequential, journaling to a fresh store, killed
	// after the 4th outcome, from purged memory caches so it verifies
	// its own verdicts.
	dir := t.TempDir()
	opt := base
	opt.CacheDir = dir
	bench.DefaultElab.Purge()
	got := 0
	for _, err := range Stream(context.Background(), gen, e.ICL, e.Corpus, opt) {
		if err != nil {
			t.Fatal(err)
		}
		if got++; got == 4 {
			break
		}
	}

	// A process restart loses every in-memory cache but keeps the disk
	// store. Purge simulates that over the same cache dir.
	bench.DefaultElab.Purge()

	mu := &sync.Mutex{}
	calls := map[string]int{}
	ropt := base
	ropt.Workers = 4
	ropt.Resume = true
	ropt.CacheDir = dir
	ropt.NewVerifier = func() Verifier {
		return countingVerifier{inner: NewEngineVerifier(), mu: mu, calls: calls}
	}
	res, err := Run(context.Background(), gen, e.ICL, e.Corpus, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Errorf("resumed run differs from the never-interrupted reference\nref: %+v\ngot: %+v", ref.Metrics, res.Metrics)
	}
	for i, d := range e.Corpus {
		n := calls[d.Name]
		if i < 4 && n != 0 {
			t.Errorf("decided design %d (%s) was re-verified %d times", i, d.Name, n)
		}
		if i >= 4 && n == 0 {
			t.Errorf("undecided design %d (%s) was never verified", i, d.Name)
		}
	}
}

// TestResumeServesFullyDecidedRun: after a complete journaled run, a
// resume makes zero verifier calls and reproduces the stream exactly —
// and the manifest key ignores Workers, budgets, Retries and
// ErrorPolicy, so a resume under different execution knobs still finds
// the same manifest (decided verdicts are execution-independent).
func TestResumeServesFullyDecidedRun(t *testing.T) {
	detachStore(t)
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT4o())
	base := RunOptions{Shots: 1, Seed: 11, Workers: 1}

	dir := t.TempDir()
	opt := base
	opt.CacheDir = dir
	bench.DefaultElab.Purge()
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}

	bench.DefaultElab.Purge()

	mu := &sync.Mutex{}
	calls := map[string]int{}
	ropt := base
	ropt.Workers = 3
	ropt.Retries = 2
	ropt.ErrorPolicy = ErrorPolicyContinue
	ropt.Resume = true
	ropt.CacheDir = dir
	ropt.NewVerifier = func() Verifier {
		return countingVerifier{inner: NewEngineVerifier(), mu: mu, calls: calls}
	}
	res, err := Run(context.Background(), gen, e.ICL, e.Corpus, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Error("resume of a fully decided run differs from the original")
	}
	if len(calls) != 0 {
		t.Errorf("fully decided resume still verified %d designs: %v", len(calls), calls)
	}
}

// TestResumeWithoutStoreIsRejected: Resume without an attached artifact
// store is a usage error, caught before any work starts.
func TestResumeWithoutStoreIsRejected(t *testing.T) {
	detachStore(t)
	e := testExperiment(t, 2)
	gen := NewModelGenerator(llm.GPT35())
	_, err := Run(context.Background(), gen, e.ICL, e.Corpus, RunOptions{Shots: 1, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "Resume requires") {
		t.Fatalf("err = %v, want a Resume-requires-store usage error", err)
	}
}
