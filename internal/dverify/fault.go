package dverify

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"

	"assertionbench/internal/bench"
	"assertionbench/internal/eval"
	"assertionbench/internal/faultinject"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/verilog"
)

// --- oracle 11: fault tolerance vs the fault-free reference ---

// countingVerifier wraps the real engine and tallies Verify/VerifyBatch
// calls per design name across all workers. Phase 3 uses it to prove
// resumed runs serve journaled designs without re-verification —
// the one mutation (a dropped record) that stream comparison
// cannot see, because re-verifying a decided design reproduces the same
// verdicts.
type countingVerifier struct {
	inner eval.Verifier
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
	return c.inner.(eval.BatchVerifier).VerifyBatch(ctx, d, nl, as, opt)
}

// VerifierKey is the wrapped engine's: counting calls changes no result,
// so phase 3 resumes from the records the engine journaled.
func (c countingVerifier) VerifierKey(opt fpv.Options) string {
	return c.inner.(eval.KeyedVerifier).VerifierKey(opt)
}

// checkFault drives the fault-tolerance layer through three phases over
// the generated corpus and compares each against the fault-free
// sequential reference:
//
//  1. absorbed chaos — a deterministic plan of bounded transient faults
//     (error on the first two attempts of one design, a first-attempt
//     panic on another, a slow-design delay on a third), run parallel
//     with Retries=2 under ErrorPolicyContinue and a journaling store,
//     must be byte-identical to the reference;
//  2. surfaced failure — a permanent panic on one design under the same
//     options must stream every other design identical to the reference
//     and exactly that design as an errored outcome at its position;
//  3. resume convergence — with faults cleared, resuming over the
//     phase-2 records must reproduce the reference exactly, with zero
//     verifier calls on recorded designs and at least one on the
//     previously failed design.
//
// The corpus is capped at 8 designs: the oracle runs the corpus four
// times, and fault placement only needs three distinct targets.
func (h *harness) checkFault(ctx context.Context, corpus []bench.Design) (int, []Disagreement, error) {
	if len(corpus) > 8 {
		corpus = corpus[:8]
	}
	n := len(corpus)
	gen := eval.NewModelGenerator(llm.GPT4o())
	icl := selfCheckExamples()
	base := eval.RunOptions{
		Shots: 1, Seed: h.opt.Seed, UseCorrector: true,
		FPV: fpv.Options{MaxProductStates: 1500, MaxInputBits: 8,
			MaxInputSamples: 8, RandomRuns: 8, RandomDepth: 24, Seed: h.opt.Seed},
	}
	// Each run starts from purged memory caches, so no phase is answered
	// from an earlier run's verdict memo.
	collect := func(label string, opt eval.RunOptions) (string, []eval.DesignOutcome, error) {
		bench.DefaultElab.Purge()
		var sb strings.Builder
		var outs []eval.DesignOutcome
		for o, err := range eval.Stream(ctx, gen, icl, corpus, opt) {
			if err != nil {
				return "", nil, fmt.Errorf("fault %s run: %w", label, err)
			}
			renderOutcome(&sb, o)
			outs = append(outs, o)
		}
		return sb.String(), outs, nil
	}

	// The reference must be truly store-free (no journaling), so
	// detach any process-wide store for its duration and restore the
	// detached state when the oracle finishes.
	if err := bench.SetCacheDir(""); err != nil {
		return 0, nil, fmt.Errorf("fault oracle: detach store: %w", err)
	}
	defer bench.SetCacheDir("")

	seqOpt := base
	seqOpt.Workers = 1
	seq, _, err := collect("sequential reference", seqOpt)
	if err != nil {
		return 0, nil, err
	}

	// Seeded fault placement: three targets spread over the corpus
	// (modular collisions at tiny corpora are harmless — every phase-1
	// rule stays bounded within the retry budget either way).
	tIdx := int(uint64(h.opt.Seed*2654435761) % uint64(n))
	pIdx := (tIdx + 1) % n
	sIdx := (tIdx + 2) % n

	dir, err := os.MkdirTemp("", "dverify-chaos-")
	if err != nil {
		return 0, nil, fmt.Errorf("fault oracle: chaos store dir: %w", err)
	}
	defer os.RemoveAll(dir)

	checks := 0
	var ds []Disagreement

	// Phase 1: every fault bounded within the retry budget — the chaos
	// run must be indistinguishable from the reference.
	restore := faultinject.Plan{Faults: []faultinject.Fault{
		{Index: tIdx, Mode: faultinject.ModeError, Attempts: 2},
		{Index: pIdx, Mode: faultinject.ModePanic, Attempts: 1},
		{Index: sIdx, Mode: faultinject.ModeDelay},
	}}.Install()
	chaosOpt := base
	chaosOpt.Workers = 4
	chaosOpt.Retries = 2
	chaosOpt.ErrorPolicy = eval.ErrorPolicyContinue
	chaosOpt.CacheDir = dir
	chaos, _, err := collect("absorbed chaos", chaosOpt)
	restore()
	if err != nil {
		return checks, ds, err
	}
	checks++
	if chaos != seq {
		ds = append(ds, Disagreement{Oracle: OracleFault,
			Detail: "retry-absorbed chaos run differs from the fault-free sequential stream:\n" + firstDiff(seq, chaos)})
	}

	// Phase 2: a permanent panic exhausts the retries; under the
	// continue policy it must surface as exactly one errored outcome.
	// It journals into a store of its own: records are written once and
	// kept, so phase 1's record of the failing design would otherwise
	// serve phase 3.
	permDir, err := os.MkdirTemp("", "dverify-chaos-")
	if err != nil {
		return checks, ds, fmt.Errorf("fault oracle: chaos store dir: %w", err)
	}
	defer os.RemoveAll(permDir)
	permOpt := chaosOpt
	permOpt.CacheDir = permDir
	restore = faultinject.Plan{Faults: []faultinject.Fault{
		{Index: pIdx, Mode: faultinject.ModePanic},
	}}.Install()
	perm, _, err := collect("permanent failure", permOpt)
	restore()
	if err != nil {
		return checks, ds, err
	}
	checks++
	seqLines := strings.Split(seq, "\n")
	permLines := strings.Split(perm, "\n")
	if len(permLines) != len(seqLines) {
		ds = append(ds, Disagreement{Oracle: OracleFault,
			Detail: fmt.Sprintf("continue-policy run streamed %d outcomes, reference has %d", len(permLines)-1, len(seqLines)-1)})
	} else {
		for i, l := range permLines {
			switch {
			case i == pIdx:
				if !strings.Contains(l, "|err=true:") || strings.Contains(l, `|err=true:""`) {
					ds = append(ds, Disagreement{Oracle: OracleFault,
						Detail: fmt.Sprintf("permanently failing design #%d not streamed as an errored outcome with a message: %s", pIdx, l)})
				}
			case l != seqLines[i]:
				ds = append(ds, Disagreement{Oracle: OracleFault,
					Detail: fmt.Sprintf("unfaulted design line %d differs under the continue policy:\n-%s\n+%s", i, seqLines[i], l)})
			}
		}
	}

	// Phase 3: the fault is gone; resuming over phase 2's records must
	// converge to the reference, touching only the failed design.
	mu := &sync.Mutex{}
	calls := map[string]int{}
	resOpt := base
	resOpt.Workers = 4
	resOpt.Resume = true
	resOpt.CacheDir = permDir
	resOpt.NewVerifier = func() eval.Verifier {
		return countingVerifier{inner: eval.NewEngineVerifier(), mu: mu, calls: calls}
	}
	resumed, _, err := collect("resume", resOpt)
	if err != nil {
		return checks, ds, err
	}
	checks++
	if resumed != seq {
		ds = append(ds, Disagreement{Oracle: OracleFault,
			Detail: "resumed run differs from the fault-free sequential stream:\n" + firstDiff(seq, resumed)})
	}
	checks++
	for i, d := range corpus {
		c := calls[d.Name]
		if i == pIdx && c == 0 {
			ds = append(ds, Disagreement{Oracle: OracleFault,
				Detail: fmt.Sprintf("resume never re-verified the previously failed design #%d (%s)", i, d.Name)})
		}
		if i != pIdx && c > 0 {
			ds = append(ds, Disagreement{Oracle: OracleFault,
				Detail: fmt.Sprintf("resume re-verified journaled design #%d (%s) %d times — its record was not honored", i, d.Name, c)})
		}
	}
	return checks, ds, nil
}
