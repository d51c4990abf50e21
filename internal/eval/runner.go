package eval

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"assertionbench/internal/bench"
	"assertionbench/internal/corrector"
	"assertionbench/internal/faults"
	"assertionbench/internal/llm"
)

// The concurrent evaluation runner. A run decomposes into one job per
// design; a bounded worker pool takes jobs in the planned dispatch order
// (sched.go) and their results are streamed back in corpus order,
// so both the incremental Stream and the batch Run (a collector over the
// stream) are identical to a sequential walk at the same seed:
//
//   - every per-design random stream is seeded from the design's GLOBAL
//     corpus index (not its position in a shard, in the dispatch order,
//     or the order workers happened to pick jobs up), and
//     generation/verification allocate a fresh seeded rand.Rand per
//     call — no worker ever touches a shared or unseeded source on the
//     concurrent path;
//   - each worker owns one Verifier built by RunOptions.NewVerifier (the
//     default reuses one fpv.Engine per worker instead of reallocating
//     between assertions);
//   - elaborated netlists come from the process-wide bench.DefaultElab
//     cache and are immutable, so workers share them read-only.
//
// Cancellation: ctx is polled by every worker between and inside jobs
// (generation loops and FPV search loops poll it too) and by the
// in-order emitter. A canceled run stops within one design job per
// worker, leaks no goroutines, and surfaces ctx.Err(). Anytime budgets
// (RunOptions.Deadline / DesignBudget) ride the same plumbing as derived
// context deadlines, but expiry is not an error: it truncates.

type jobResult struct {
	outcome DesignOutcome
	err     error
}

type indexedResult struct {
	idx int
	res jobResult
}

// streamJobs evaluates designs[i] for every i, in parallel when
// opt.Workers allows, and yields outcomes strictly in corpus order, each
// the moment it and all its predecessors are done. base is the global
// corpus index of designs[0]. The first per-design error (lowest corpus
// index, identical to what a sequential walk would hit) is yielded as the
// final element and ends the stream.
func streamJobs(ctx context.Context, gen Generator, icl []llm.Example, designs []bench.Design, base int, opt RunOptions, rec *journal, yield func(DesignOutcome, error) bool) {
	// Journal plumbing (manifest.go): with a journal (rec non-nil),
	// decided outcomes are journaled write-behind as they complete, one
	// record per design, and with Resume set the outcomes a previous run
	// already recorded are served directly — their designs are never
	// dispatched, so no generation or verification happens for them.
	// skip holds the resolved local indices for the dispatcher below.
	var done map[int]DesignOutcome
	var skip map[int]bool
	if rec != nil && opt.Resume {
		done = rec.resume(designs, base)
	}
	if len(done) > 0 {
		skip = make(map[int]bool, len(done))
		for g := range done {
			skip[g-base] = true
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(designs) {
		workers = len(designs)
	}
	start := time.Now()
	if workers <= 1 {
		runCtx := ctx
		if opt.Deadline > 0 {
			var rcancel context.CancelFunc
			runCtx, rcancel = context.WithTimeout(ctx, opt.Deadline)
			defer rcancel()
		}
		v := opt.NewVerifier()
		for i := range designs {
			if o, ok := done[base+i]; ok {
				if !yield(o, nil) {
					return
				}
				continue
			}
			jr := runJob(ctx, runCtx, gen, v, icl, designs[i], base+i, opt, start, rec)
			if jr.err != nil {
				yield(DesignOutcome{}, jr.err)
				return
			}
			if !yield(jr.outcome, nil) {
				return
			}
		}
		return
	}

	// The concurrent path: the dispatcher hands jobs to a pool of
	// workers, and the emitter below reorders completions back into
	// corpus order. The derived pool context tears the pool down on any
	// exit path (consumer break, external cancellation, first error);
	// the run-deadline context is layered inside it so budget expiry
	// truncates without tearing anything down. results is buffered to
	// capacity so workers can never block on a consumer that has stopped
	// reading.
	poolCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	runCtx := context.Context(poolCtx)
	if opt.Deadline > 0 {
		var rcancel context.CancelFunc
		runCtx, rcancel = context.WithTimeout(poolCtx, opt.Deadline)
		defer rcancel()
	}

	results := make(chan indexedResult, len(designs))
	post := func(i int, jr jobResult) {
		// SchedIndexHook is the oracle-3 mutation seam: it misroutes a
		// result to the wrong reorder slot, which parallel-vs-sequential
		// comparison must catch. Production leaves it nil.
		slot := i
		if SchedIndexHook != nil {
			slot = SchedIndexHook(slot)
		}
		results <- indexedResult{idx: slot, res: jr}
	}

	// Resume-resolved designs post their recorded outcomes straight into
	// the reorder buffer (it is buffered to the full corpus, so this can
	// never block); the dispatcher below skips their indices entirely.
	for i := range designs {
		if o, ok := done[base+i]; ok {
			post(i, jobResult{outcome: o})
		}
	}

	// Planned dispatch: workers take the next planned design from one
	// shared counter. Jobs run out of corpus order, so the first-error
	// contract needs an atomic minimum instead of a stop flag: a job
	// above the lowest erroring index is skipped (the emitter will never
	// consume it), while everything below keeps running because the
	// emitter needs the complete prefix.
	order := dispatchOrder(poolCtx, designs, skip)
	var claimed atomic.Int64
	var minFailed atomic.Int64
	minFailed.Store(int64(len(designs)))
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := opt.NewVerifier()
			for {
				k := claimed.Add(1) - 1
				if k >= int64(len(order)) {
					return
				}
				i := order[k]
				if int64(i) > minFailed.Load() {
					continue
				}
				jr := runJob(poolCtx, runCtx, gen, v, icl, designs[i], base+i, opt, start, rec)
				if jr.err != nil {
					for {
						cur := minFailed.Load()
						if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
				post(i, jr)
				if poolCtx.Err() != nil {
					return
				}
			}
		}()
	}

	// In-order emitter: completions arrive in whatever order workers
	// finish; outcome i is yielded the moment it and all predecessors are
	// available, so consumers see a deterministic, incrementally delivered
	// sequence.
	pending := make(map[int]jobResult, workers)
	for next := 0; next < len(designs); next++ {
		// The results channel is buffered, so completions can pile up ahead
		// of the consumer; a cancellation must still win over drained
		// results, exactly as the sequential path's per-job ctx check does.
		if err := poolCtx.Err(); err != nil {
			yield(DesignOutcome{}, err)
			return
		}
		jr, ok := pending[next]
		for !ok {
			select {
			case r := <-results:
				if r.idx == next {
					jr, ok = r.res, true
				} else {
					pending[r.idx] = r.res
				}
			case <-poolCtx.Done():
				yield(DesignOutcome{}, poolCtx.Err())
				return
			}
		}
		delete(pending, next)
		if jr.err != nil {
			yield(DesignOutcome{}, jr.err)
			return
		}
		if !yield(jr.outcome, nil) {
			return
		}
	}
}

// runJob wraps one design evaluation with the concerns that are not the
// job's own: an exhausted run deadline turns the design into a truncated
// stub instead of evaluating it; attempts run with panic isolation
// (attemptJob); a transient failure retries up to opt.Retries times
// under the deterministic backoff schedule (retry.go); a failure that
// survives retries either ends the run (ErrorPolicyFail) or becomes an
// errored outcome at this design's corpus position
// (ErrorPolicyContinue); decided outcomes are journaled as the
// design's record; and completed designs are reported to OnDesignDone
// with their wall and completion-since-start times.
func runJob(ctx, runCtx context.Context, gen Generator, v Verifier, icl []llm.Example, d bench.Design, globalIdx int, opt RunOptions, start time.Time, rec *journal) jobResult {
	if err := ctx.Err(); err != nil {
		return jobResult{err: err}
	}
	if runCtx.Err() != nil {
		return jobResult{outcome: DesignOutcome{Index: globalIdx, Design: d.Name, Truncated: true}}
	}
	t0 := time.Now()
	jr := attemptJob(ctx, runCtx, gen, v, icl, d, globalIdx, 1, opt)
	for attempt := 1; jr.err != nil && attempt <= opt.Retries && faults.IsTransient(jr.err) && ctx.Err() == nil; attempt++ {
		if RetryDropHook != nil && RetryDropHook(globalIdx, attempt) {
			break
		}
		if !sleepBackoff(ctx, backoff(opt.Seed, globalIdx, attempt)) {
			return jobResult{err: ctx.Err()}
		}
		if runCtx.Err() != nil {
			return jobResult{outcome: DesignOutcome{Index: globalIdx, Design: d.Name, Truncated: true}}
		}
		jr = attemptJob(ctx, runCtx, gen, v, icl, d, globalIdx, attempt+1, opt)
	}
	if jr.err != nil {
		// Cancellation is never converted to an outcome: a canceled run
		// must end with ctx.Err() under either policy.
		if opt.ErrorPolicy == ErrorPolicyContinue && ctx.Err() == nil && !errors.Is(jr.err, context.Canceled) {
			return jobResult{outcome: DesignOutcome{Index: globalIdx, Design: d.Name, Errored: true, Err: jr.err.Error()}}
		}
		return jr
	}
	rec.record(d, jr.outcome)
	if opt.OnDesignDone != nil {
		opt.OnDesignDone(globalIdx, time.Since(t0), time.Since(start))
	}
	return jr
}

// Stream evaluates a Generator on the corpus and yields one DesignOutcome
// per design, in corpus order, each delivered as soon as it (and every
// design before it) finishes — the paper's Fig. 4 (with corrector) or
// Fig. 8 (without) pipeline as an incremental sequence. The sequence ends
// after the last design, or early with a single non-nil error: the first
// per-design failure (at the same corpus position a sequential walk would
// fail), or ctx.Err() on cancellation. Outcomes already yielded before an
// error are exactly the prefix a sequential run would have kept.
//
// The yielded stream is deterministic: at equal seed it is identical for
// any Workers count, and shard streams concatenate to the unsharded
// stream. Breaking out of the iteration early cancels and drains the
// worker pool before the iterator returns.
//
// With an anytime budget set (RunOptions.Deadline / DesignBudget) the
// stream still covers every design and still ends without error on
// budget expiry: finished designs keep their verdicts, interrupted ones
// carry decided verdicts plus VerdictUnknown with Truncated set, and
// designs the deadline beat entirely stream as truncated stubs.
//
// Fault tolerance rides the same contract. Each design job runs with
// panic isolation; transient failures retry up to RunOptions.Retries
// with deterministic backoff; what still fails then either ends the
// stream (ErrorPolicyFail, the default — byte-identical to the original
// first-error semantics) or streams as an errored outcome at its corpus
// position while the run finishes (ErrorPolicyContinue). With an
// artifact store attached, every decided outcome is journaled as a
// crash-safe per-design record as it completes, and RunOptions.Resume
// serves decided outcomes from those records instead of re-evaluating
// them — a killed run resumed this way yields the exact stream of a run
// that was never interrupted (dverify oracle 11).
func Stream(ctx context.Context, gen Generator, examples []llm.Example, corpus []bench.Design, opt RunOptions) iter.Seq2[DesignOutcome, error] {
	return func(yield func(DesignOutcome, error) bool) {
		opt = opt.withDefaults()
		if opt.Shots < 0 {
			yield(DesignOutcome{}, fmt.Errorf("eval: negative Shots %d (0 means the default)", opt.Shots))
			return
		}
		if opt.Shots > len(examples) {
			yield(DesignOutcome{}, fmt.Errorf("eval: %d-shot requested but only %d examples", opt.Shots, len(examples)))
			return
		}
		// Scheduler-adjacent knobs fail fast with a clear message rather
		// than silently clamping: a negative worker count or budget is
		// always a caller bug.
		if opt.Workers < 0 {
			yield(DesignOutcome{}, fmt.Errorf("eval: negative Workers %d (0 means GOMAXPROCS, 1 forces sequential)", opt.Workers))
			return
		}
		if opt.Deadline < 0 {
			yield(DesignOutcome{}, fmt.Errorf("eval: negative Deadline %v (0 disables the run budget)", opt.Deadline))
			return
		}
		if opt.DesignBudget < 0 {
			yield(DesignOutcome{}, fmt.Errorf("eval: negative DesignBudget %v (0 disables the per-design budget)", opt.DesignBudget))
			return
		}
		if !ValidErrorPolicy(opt.ErrorPolicy) {
			yield(DesignOutcome{}, fmt.Errorf("eval: unknown error policy %q (want %q or %q)",
				opt.ErrorPolicy, ErrorPolicyFail, ErrorPolicyContinue))
			return
		}
		if opt.Retries < 0 {
			yield(DesignOutcome{}, fmt.Errorf("eval: negative Retries %d (0 disables retry)", opt.Retries))
			return
		}
		if opt.CacheDir != "" {
			if err := bench.SetCacheDir(opt.CacheDir); err != nil {
				yield(DesignOutcome{}, fmt.Errorf("eval: cache dir: %w", err))
				return
			}
		}
		if opt.Resume && bench.DiskStore() == nil {
			yield(DesignOutcome{}, fmt.Errorf("eval: Resume requires an attached artifact store (set CacheDir): the run's records live there"))
			return
		}
		var rec *journal
		if store := bench.DiskStore(); store != nil {
			rec = newJournal(store, gen, examples[:opt.Shots], opt)
		}
		if opt.Resume && rec == nil {
			yield(DesignOutcome{}, fmt.Errorf("eval: Resume requires a verifier with an identity (the built-in FPV engine): records of other verifiers are not journaled"))
			return
		}
		designs := corpus
		if opt.MaxDesigns > 0 && opt.MaxDesigns < len(designs) {
			designs = designs[:opt.MaxDesigns]
		}
		base := 0
		if opt.ShardCount > 1 || opt.ShardIndex != 0 {
			// Shard validates the spec too: a stray ShardIndex with an unset
			// ShardCount is an error, not a silent full-corpus run.
			shard, err := bench.Shard(designs, opt.ShardIndex, opt.ShardCount)
			if err != nil {
				yield(DesignOutcome{}, fmt.Errorf("eval: %w", err))
				return
			}
			base, _ = bench.ShardStart(len(designs), opt.ShardIndex, opt.ShardCount)
			designs = shard
		}
		streamJobs(ctx, gen, examples[:opt.Shots], designs, base, opt, rec, yield)
	}
}

// evalDesign is one job: elaborate (cached), generate, correct, and
// verify one design. globalIdx seeds generation so the outcome is a
// function of the design's corpus position and the run seed only. ctx is
// the caller's (cancellation aborts the job with its error); runCtx
// layers the run deadline on top, and the per-design budget derives from
// it here — budget expiry truncates the outcome instead of failing it.
func evalDesign(ctx, runCtx context.Context, gen Generator, v Verifier, icl []llm.Example, d bench.Design, globalIdx int, opt RunOptions) jobResult {
	if err := ctx.Err(); err != nil {
		return jobResult{err: err}
	}
	vctx := runCtx
	if opt.DesignBudget > 0 {
		var vcancel context.CancelFunc
		vctx, vcancel = context.WithTimeout(runCtx, opt.DesignBudget)
		defer vcancel()
	}
	nl, err := bench.Elaborate(d)
	if err != nil {
		return jobResult{err: fmt.Errorf("eval: corpus design %s: %w", d.Name, err)}
	}
	out, err := gen.Generate(vctx, d, icl, GenOptions{
		Shots: opt.Shots,
		Seed:  opt.Seed*1000003 + int64(globalIdx)*7919 + int64(opt.Shots),
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return jobResult{err: cerr}
		}
		if vctx.Err() != nil {
			// The budget beat generation: nothing to verify, stream a
			// truncated stub rather than an error.
			return jobResult{outcome: DesignOutcome{Index: globalIdx, Design: d.Name, Truncated: true}}
		}
		return jobResult{err: fmt.Errorf("eval: generator %s on %s: %w", gen.Name(), d.Name, err)}
	}
	outcome := DesignOutcome{
		Index:     globalIdx,
		Design:    d.Name,
		Generated: out.Assertions,
		OffTask:   out.OffTask,
		Grounded:  out.Grounded,
	}
	checked := out.Assertions
	if opt.UseCorrector {
		fixed, _ := corrector.New(nl).CorrectAll(out.Assertions)
		outcome.Corrected = fixed
		checked = fixed
	}
	// The design's whole candidate list goes through the batched verifier
	// when the Verifier supports it, sharing one reachability exploration
	// across the assertions (verdicts are identical to the one-at-a-time
	// loop). A canceled verification surfaces as StatusError results;
	// abort the whole job rather than record verdicts a completed run
	// would never contain. A budget expiry, by contrast, surfaces as
	// StatusUnknown — those classify to VerdictUnknown and the outcome is
	// kept, truncated.
	if bv, ok := v.(BatchVerifier); ok {
		rs := bv.VerifyBatch(vctx, d, nl, checked, opt.FPV)
		if err := ctx.Err(); err != nil {
			return jobResult{err: err}
		}
		for _, r := range rs {
			outcome.Verdicts = append(outcome.Verdicts, Classify(r))
			if r.Static {
				outcome.StaticDischarged++
			}
		}
	} else {
		for _, line := range checked {
			r := v.Verify(vctx, d, nl, line, opt.FPV)
			if err := ctx.Err(); err != nil {
				return jobResult{err: err}
			}
			outcome.Verdicts = append(outcome.Verdicts, Classify(r))
			if r.Static {
				outcome.StaticDischarged++
			}
		}
	}
	if vctx.Err() != nil {
		outcome.Truncated = true
	}
	return jobResult{outcome: outcome}
}
