package assertionbench_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"assertionbench"
)

// allCEXVerifier is a caller-supplied Verifier that refutes every
// assertion: its outcomes differ from the built-in engine's on any
// design with a passing assertion.
type allCEXVerifier struct{}

func (allCEXVerifier) Verify(_ context.Context, _ assertionbench.Design, a string) assertionbench.VerifyResult {
	return assertionbench.VerifyResult{Assertion: a, Status: assertionbench.StatusCEX}
}

// resumeRun runs GPT-4o 1-shot over b's designs on one worker from
// purged memory caches, journaling into (and with resume set, resuming
// from) the store at dir ("" runs store-less).
func resumeRun(t *testing.T, b *assertionbench.Benchmark, dir string, resume bool, v assertionbench.Verifier) (assertionbench.RunResult, error) {
	t.Helper()
	t.Cleanup(func() { assertionbench.SetCacheDir("") })
	if err := assertionbench.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	assertionbench.PurgeCaches()
	opt := assertionbench.RunOptions{Shots: 1, UseCorrector: true, Seed: 1, Workers: 1, Resume: resume, Verifier: v}
	return assertionbench.NewRunner(assertionbench.NewModelGenerator(assertionbench.GPT4o()), b, opt).Run(context.Background())
}

// mustRun is resumeRun that fails the test on a run error.
func mustRun(t *testing.T, b *assertionbench.Benchmark, dir string, resume bool, v assertionbench.Verifier) assertionbench.RunResult {
	t.Helper()
	r, err := resumeRun(t, b, dir, resume, v)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResumeAfterCustomVerifierVerifiesAfresh: a run decided by a
// caller-supplied verifier cannot be keyed, so it journals nothing, and
// a built-in run resumed over its store must equal a fresh built-in
// run rather than serve the custom verifier's all-CEX outcomes.
func TestResumeAfterCustomVerifierVerifiesAfresh(t *testing.T) {
	b := loadBenchmark(t, 3)
	want := mustRun(t, b, "", false, nil)
	custom := mustRun(t, b, "", false, allCEXVerifier{})
	if reflect.DeepEqual(want.Metrics, custom.Metrics) {
		t.Fatal("the custom verifier decides like the engine; the test cannot tell the records apart")
	}
	dir := t.TempDir()
	mustRun(t, b, dir, false, allCEXVerifier{})
	got := mustRun(t, b, dir, true, nil)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed built-in run served the custom verifier's outcomes\nwant: %v\ngot:  %v", want.Metrics, got.Metrics)
	}
}

// TestResumeKeysOnVerifierBounds: NewVerifier's bounds decide its
// verdicts, so a run with tighter bounds resumed over a default run's
// store must equal a fresh run with those bounds.
func TestResumeKeysOnVerifierBounds(t *testing.T) {
	b := loadBenchmark(t, 3)
	tight := assertionbench.NewVerifier(assertionbench.VerifyOptions{MaxProductStates: 1})
	want := mustRun(t, b, "", false, tight)
	if reflect.DeepEqual(want.Metrics, mustRun(t, b, "", false, nil).Metrics) {
		t.Fatal("the bounds do not move any verdict; the test cannot tell the records apart")
	}
	dir := t.TempDir()
	mustRun(t, b, dir, false, nil)
	got := mustRun(t, b, dir, true, tight)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed run served the default run's outcomes\nwant: %v\ngot:  %v", want.Metrics, got.Metrics)
	}
}

// TestResumeWithCustomVerifierIsRejected: outcomes of a verifier the
// runner cannot key are never journaled, so resuming with one is a
// usage error, like resuming without a store.
func TestResumeWithCustomVerifierIsRejected(t *testing.T) {
	b := loadBenchmark(t, 1)
	_, err := resumeRun(t, b, t.TempDir(), true, allCEXVerifier{})
	if err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Fatalf("err = %v, want a Resume usage error", err)
	}
}
