package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"assertionbench/internal/astore"
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

// VerifierKey is the wrapped verifier's: counting calls changes no
// result, so the resume tests read the records the engine journaled.
func (c countingVerifier) VerifierKey(opt fpv.Options) string {
	return c.inner.(KeyedVerifier).VerifierKey(opt)
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

// resumeOver runs gen over corpus journaling into a fresh store, then
// resumes over that store with resumeGen, resumeICL and resumeCorpus
// (see resumeCounted).
func resumeOver(t *testing.T, gen Generator, icl []llm.Example, corpus []bench.Design, resumeGen Generator, resumeICL []llm.Example, resumeCorpus []bench.Design, opt RunOptions) (RunResult, map[string]int) {
	t.Helper()
	opt.CacheDir = t.TempDir()
	bench.DefaultElab.Purge()
	if _, err := Run(context.Background(), gen, icl, corpus, opt); err != nil {
		t.Fatal(err)
	}
	return resumeCounted(t, resumeGen, resumeICL, resumeCorpus, opt)
}

// resumeCounted resumes over opt's store from purged memory caches and
// returns the result with the verify calls it made per design.
func resumeCounted(t *testing.T, gen Generator, icl []llm.Example, corpus []bench.Design, opt RunOptions) (RunResult, map[string]int) {
	t.Helper()
	bench.DefaultElab.Purge()
	mu := &sync.Mutex{}
	calls := map[string]int{}
	opt.Resume = true
	opt.NewVerifier = func() Verifier {
		return countingVerifier{inner: NewEngineVerifier(), mu: mu, calls: calls}
	}
	res, err := Run(context.Background(), gen, icl, corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, calls
}

// freshRun is a store-less run from purged memory caches.
func freshRun(t *testing.T, gen Generator, icl []llm.Example, corpus []bench.Design, opt RunOptions) RunResult {
	t.Helper()
	bench.DefaultElab.Purge()
	res, err := Run(context.Background(), gen, icl, corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResumeKeysOnExamples: two runs that differ only in their
// in-context examples produce different outcomes, so a run resumed over
// the other run's journal must evaluate afresh and equal a fresh run
// with its own examples.
func TestResumeKeysOnExamples(t *testing.T) {
	detachStore(t)
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT4o())
	opt := RunOptions{Shots: 1, UseCorrector: true, Seed: 3, Workers: 2}
	other := e.ICL[1:]

	want := freshRun(t, gen, other, e.Corpus, opt)
	if reflect.DeepEqual(want, freshRun(t, gen, e.ICL, e.Corpus, opt)) {
		t.Fatal("the two example sets give identical runs; the test cannot tell the keys apart")
	}
	got, _ := resumeOver(t, gen, e.ICL, e.Corpus, gen, other, e.Corpus, opt)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed run served the other examples' outcomes\nwant: %+v\ngot:  %+v", want.Metrics, got.Metrics)
	}
}

// TestResumeKeysOnFinetune: CodeLLaMa 2 fine-tuned for 1 and for 20
// epochs share the name AssertionLLM(CodeLLaMa 2) but generate
// differently, so a resumed 20-epoch run over the 1-epoch run's journal
// must equal a fresh 20-epoch run.
func TestResumeKeysOnFinetune(t *testing.T) {
	detachStore(t)
	e := testExperiment(t, 6)
	tune := func(epochs int) Generator {
		m, _ := llm.Finetune(llm.New(llm.CodeLlama2()), e.ICL, llm.FinetuneOptions{Epochs: epochs, Seed: 1})
		return ModelGenerator{Model: m}
	}
	one, twenty := tune(1), tune(20)
	if one.Name() != twenty.Name() {
		t.Fatalf("names %q and %q differ; the test needs equal names", one.Name(), twenty.Name())
	}
	opt := RunOptions{Shots: 1, Seed: 2, Workers: 2}

	want := freshRun(t, twenty, e.ICL, e.Corpus, opt)
	if reflect.DeepEqual(want, freshRun(t, one, e.ICL, e.Corpus, opt)) {
		t.Fatal("1 and 20 epochs give identical runs; the test cannot tell the keys apart")
	}
	got, _ := resumeOver(t, one, e.ICL, e.Corpus, twenty, e.ICL, e.Corpus, opt)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed 20-epoch run served the 1-epoch outcomes\nwant: %+v\ngot:  %+v", want.Metrics, got.Metrics)
	}
}

// TestResumeAfterEditingOneDesign: a design's record depends on that
// design alone, so resuming over a journaled run after one design's
// source changed verifies only the edited design and equals a fresh run
// over the edited corpus.
func TestResumeAfterEditingOneDesign(t *testing.T) {
	detachStore(t)
	e := testExperiment(t, 8)
	gen := NewModelGenerator(llm.GPT4o())
	opt := RunOptions{Shots: 1, UseCorrector: true, Seed: 7, Workers: 2}
	const edited = 5
	corpus := slices.Clone(e.Corpus)
	corpus[edited].Source += "\n// edited\n"

	want := freshRun(t, gen, e.ICL, corpus, opt)
	got, calls := resumeOver(t, gen, e.ICL, e.Corpus, gen, e.ICL, corpus, opt)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resume over the edited corpus differs from a fresh run\nwant: %+v\ngot:  %+v", want.Metrics, got.Metrics)
	}
	for i, d := range corpus {
		n := calls[d.Name]
		if i == edited && n == 0 {
			t.Errorf("edited design %d (%s) was never verified", i, d.Name)
		}
		if i != edited && n != 0 {
			t.Errorf("unchanged design %d (%s) was re-verified %d times", i, d.Name, n)
		}
	}
}

// storeFile is what TestResumeWritesEachRecordOnce compares of a store
// file across runs.
type storeFile struct {
	size int64
	mod  time.Time
}

func snapshotStore(t *testing.T, dir string) map[string]storeFile {
	t.Helper()
	out := map[string]storeFile{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = storeFile{info.Size(), info.ModTime()}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recordFiles returns the store's run-record blobs by design name. It
// reads the container header (kind at bytes 8..12, payload from byte 24
// up to the 8-byte checksum) rather than recomputing file names.
func recordFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for path := range snapshotStore(t, dir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 32 || string(data[8:12]) != astore.KindRun {
			continue
		}
		var o DesignOutcome
		if err := json.Unmarshal(data[24:len(data)-8], &o); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[o.Design] = path
	}
	return out
}

// TestResumeWritesEachRecordOnce pins the write-once journal. Repeating
// a journaled run with warm memory caches (the verdict memo answers
// every verification, so no program or graph is written either) leaves
// every store file untouched. And a record corrupted on disk is
// discarded by the resume, its design re-evaluated, and the record
// written again byte for byte.
func TestResumeWritesEachRecordOnce(t *testing.T) {
	detachStore(t)
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT4o())
	dir := t.TempDir()
	opt := RunOptions{Shots: 1, UseCorrector: true, Seed: 9, Workers: 2, CacheDir: dir}

	bench.DefaultElab.Purge()
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotStore(t, dir)
	if _, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt); err != nil {
		t.Fatal(err)
	}
	after := snapshotStore(t, dir)
	for path, f := range after {
		if b, ok := before[path]; !ok || b.size != f.size || !b.mod.Equal(f.mod) {
			t.Errorf("a repeated run wrote %s (before %+v, after %+v)", path, b, f)
		}
	}
	if len(after) != len(before) {
		t.Errorf("a repeated run changed the store from %d to %d files", len(before), len(after))
	}

	records := recordFiles(t, dir)
	if len(records) != len(e.Corpus) {
		t.Fatalf("%d records for %d designs", len(records), len(e.Corpus))
	}
	const bad = 2
	path := records[e.Corpus[bad].Name]
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(orig)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	res, calls := resumeCounted(t, gen, e.ICL, e.Corpus, opt)
	if !reflect.DeepEqual(ref, res) {
		t.Error("resume over a corrupted record differs from the original run")
	}
	for i, d := range e.Corpus {
		if n := calls[d.Name]; (i == bad) != (n > 0) {
			t.Errorf("design %d (%s) verified %d times; only the corrupted record's design %d should be", i, d.Name, n, bad)
		}
	}
	if back, err := os.ReadFile(path); err != nil || !bytes.Equal(back, orig) {
		t.Errorf("the corrupted record was not written again (err %v)", err)
	}
}

// TestResumeRewritesUndecodableRecord: a record that passes the store's
// checksum but not decodeRecord (what a codec bug would leave behind) is
// treated as absent by the resume, and its design's record is written
// again instead of being kept because it exists.
func TestResumeRewritesUndecodableRecord(t *testing.T) {
	detachStore(t)
	e := testExperiment(t, 4)
	gen := NewModelGenerator(llm.GPT4o())
	opt := RunOptions{Shots: 1, Seed: 4, Workers: 1, CacheDir: t.TempDir()}
	bench.DefaultElab.Purge()
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 1
	path := recordFiles(t, opt.CacheDir)[e.Corpus[bad].Name]
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mark := []byte(`"Design":"` + e.Corpus[bad].Name + `"`)
	astore.LoadHook = func(kind, _ string, payload []byte) []byte {
		if kind == astore.KindRun && bytes.Contains(payload, mark) {
			return []byte("{")
		}
		return payload
	}
	defer func() { astore.LoadHook = nil }()

	res, calls := resumeCounted(t, gen, e.ICL, e.Corpus, opt)
	if !reflect.DeepEqual(ref, res) {
		t.Error("resume over an undecodable record differs from the original run")
	}
	if len(calls) != 1 || calls[e.Corpus[bad].Name] == 0 {
		t.Errorf("verify calls %v; want only design %d (%s)", calls, bad, e.Corpus[bad].Name)
	}
	if after, err := os.Stat(path); err != nil || os.SameFile(before, after) {
		t.Errorf("the undecodable record was not written again (err %v)", err)
	}
}
