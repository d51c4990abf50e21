package assertionbench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"assertionbench/internal/bench"
	"assertionbench/internal/corrector"
	"assertionbench/internal/eval"
	"assertionbench/internal/fpv"
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// VerifyStatus is the verdict lattice of the paper's Fig. 2, extended
// with the bounded verdict.
type VerifyStatus string

// Verdicts.
const (
	// StatusProven: exhaustive search closed with no violation and the
	// antecedent reachable.
	StatusProven VerifyStatus = "proven"
	// StatusVacuous: exhaustive search closed, no violation, but the
	// antecedent is unreachable.
	StatusVacuous VerifyStatus = "vacuous"
	// StatusBoundedPass: bounded search found no violation.
	StatusBoundedPass VerifyStatus = "bounded_pass"
	// StatusCEX: a counter-example trace refutes the assertion.
	StatusCEX VerifyStatus = "cex"
	// StatusError: the assertion failed to parse or type-check, or
	// verification was canceled (Err holds ctx.Err() in that case).
	StatusError VerifyStatus = "error"
	// StatusUnknown: an anytime budget (a ctx deadline) expired before
	// the engine decided the assertion. Unlike StatusError/cancellation,
	// an Unknown is a legitimate bounded answer: the run completed, this
	// assertion simply ran out of time.
	StatusUnknown VerifyStatus = "unknown"
)

// IsPass reports whether the verdict counts toward the paper's Pass
// metric (valid + vacuous + bounded outcomes).
func (s VerifyStatus) IsPass() bool {
	return s == StatusProven || s == StatusVacuous || s == StatusBoundedPass
}

func newVerifyStatus(s fpv.Status) VerifyStatus {
	switch s {
	case fpv.StatusProven:
		return StatusProven
	case fpv.StatusVacuous:
		return StatusVacuous
	case fpv.StatusBoundedPass:
		return StatusBoundedPass
	case fpv.StatusCEX:
		return StatusCEX
	case fpv.StatusUnknown:
		return StatusUnknown
	default:
		return StatusError
	}
}

func (s VerifyStatus) internal() fpv.Status {
	switch s {
	case StatusProven:
		return fpv.StatusProven
	case StatusVacuous:
		return fpv.StatusVacuous
	case StatusBoundedPass:
		return fpv.StatusBoundedPass
	case StatusCEX:
		return fpv.StatusCEX
	case StatusUnknown:
		return fpv.StatusUnknown
	default:
		return fpv.StatusError
	}
}

// Counterexample is a refuting trace: per-cycle stimulus plus the sampled
// value of every net along the violating path.
type Counterexample struct {
	nl  *verilog.Netlist
	cex *fpv.CEX
}

// ViolationCycle is the cycle at which the consequent failed.
func (c *Counterexample) ViolationCycle() int { return c.cex.ViolationCycle }

// AttemptCycle is the cycle at which the violated attempt started.
func (c *Counterexample) AttemptCycle() int { return c.cex.AttemptCycle }

// Cycles is the trace length.
func (c *Counterexample) Cycles() int { return len(c.cex.Sampled) }

// Format renders the trace as a cycle-by-cycle table for diagnostics.
func (c *Counterexample) Format() string { return c.cex.Format(c.nl) }

// WriteVCD exports the trace as a VCD waveform.
func (c *Counterexample) WriteVCD(w io.Writer) error {
	tr := sim.TraceFromSamples(c.nl, c.cex.Sampled)
	return sim.WriteVCD(w, tr, c.nl.Name)
}

// VerifyResult is the outcome of verifying one assertion.
type VerifyResult struct {
	// Assertion is the text that was verified.
	Assertion string
	Status    VerifyStatus
	// Err explains StatusError results (parse/type errors, or ctx.Err()
	// after cancellation).
	Err error
	// CEX is non-nil for StatusCEX.
	CEX *Counterexample
	// NonVacuous reports whether any explored path matched the antecedent.
	NonVacuous bool
	// Exhaustive reports whether the product space was fully closed.
	Exhaustive bool
	// States is the number of distinct product states visited; Depth the
	// deepest cycle reached.
	States int
	Depth  int
	// Static reports that the verdict came from the static
	// pre-verification pass without any state-space search.
	Static bool
}

func newVerifyResult(nl *verilog.Netlist, assertion string, r fpv.Result) VerifyResult {
	out := VerifyResult{
		Assertion:  assertion,
		Status:     newVerifyStatus(r.Status),
		Err:        r.Err,
		NonVacuous: r.NonVacuous,
		Exhaustive: r.Exhaustive,
		States:     r.States,
		Depth:      r.Depth,
		Static:     r.Static,
	}
	if r.CEX != nil {
		out.CEX = &Counterexample{nl: nl, cex: r.CEX}
	}
	return out
}

func (r VerifyResult) internal() fpv.Result {
	out := fpv.Result{
		Status:     r.Status.internal(),
		Err:        r.Err,
		NonVacuous: r.NonVacuous,
		Exhaustive: r.Exhaustive,
		States:     r.States,
		Depth:      r.Depth,
		Static:     r.Static,
	}
	if r.CEX != nil {
		out.CEX = r.CEX.cex
	}
	return out
}

// VerifyOptions bound the FPV engine. The zero value selects the
// engine's own defaults (deep search); the evaluation runner substitutes
// its evaluation-grade budget when these are left zero. A negative bound
// is an error.
type VerifyOptions struct {
	// MaxProductStates bounds the BFS frontier before degrading to
	// bounded mode.
	MaxProductStates int
	// MaxInputBits is the widest data-input vector enumerated
	// exhaustively per state.
	MaxInputBits int
	// MaxInputSamples is the number of input vectors tried per state when
	// enumeration is infeasible.
	MaxInputSamples int
	// RandomRuns and RandomDepth configure the randomized violation hunt
	// appended in bounded mode.
	RandomRuns  int
	RandomDepth int
	// Seed makes bounded exploration deterministic.
	Seed int64
}

// internal converts the bounds for the engine, rejecting negative ones:
// the engine fills only zero fields with defaults, so a negative bound
// would reach the search and skip it, panic or misreport a verdict.
func (o VerifyOptions) internal() (fpv.Options, error) {
	for _, f := range []struct {
		name string
		n    int
	}{{"MaxProductStates", o.MaxProductStates}, {"MaxInputBits", o.MaxInputBits},
		{"MaxInputSamples", o.MaxInputSamples}, {"RandomRuns", o.RandomRuns}, {"RandomDepth", o.RandomDepth}} {
		if f.n < 0 {
			return fpv.Options{}, fmt.Errorf("negative %s %d", f.name, f.n)
		}
	}
	return fpv.Options{
		MaxProductStates: o.MaxProductStates,
		MaxInputBits:     o.MaxInputBits,
		MaxInputSamples:  o.MaxInputSamples,
		RandomRuns:       o.RandomRuns,
		RandomDepth:      o.RandomDepth,
		Seed:             o.Seed,
	}, nil
}

// Verifier decides a candidate assertion's fate against a design — the
// pipeline's formal stage, swappable the same way the Generator is.
// Implementations must be safe for concurrent use: the evaluation runner
// calls one instance from every worker.
type Verifier interface {
	Verify(ctx context.Context, design Design, assertion string) VerifyResult
}

// fpvVerifier is the FPV-engine-backed Verifier. Engines are pooled so
// concurrent callers reuse allocation-heavy state instead of rebuilding
// it per call; elaboration goes through the process-wide cache.
type fpvVerifier struct {
	opt  fpv.Options
	err  error // invalid bounds: every verdict is StatusError
	pool sync.Pool
}

// NewVerifier returns the built-in FPV-backed Verifier with the given
// bounds. It is safe for concurrent use, and batch-capable: when the
// evaluation runner hands it a design's whole candidate list it shares
// one reachability exploration across the batch. With a negative bound
// every verdict is StatusError, carrying the reason.
func NewVerifier(opt VerifyOptions) Verifier {
	v := &fpvVerifier{}
	v.opt, v.err = opt.internal()
	v.pool.New = func() any {
		eng := fpv.NewEngine()
		eng.Graphs = bench.DefaultElab.Graphs()
		return eng
	}
	return v
}

func (v *fpvVerifier) Verify(ctx context.Context, design Design, assertion string) VerifyResult {
	if v.err != nil {
		return VerifyResult{Assertion: assertion, Status: StatusError, Err: v.err}
	}
	nl, err := bench.Elaborate(design.internal())
	if err != nil {
		return VerifyResult{Assertion: assertion, Status: StatusError,
			Err: fmt.Errorf("design %s does not elaborate: %w", design.Name, err)}
	}
	eng := v.pool.Get().(*fpv.Engine)
	defer v.pool.Put(eng)
	return newVerifyResult(nl, assertion, eng.VerifySource(ctx, nl, assertion, v.opt))
}

// verifyBatch is the internal batch seam NewVerifier's verifiers expose
// to the runner adapter.
func (v *fpvVerifier) verifyBatch(ctx context.Context, design Design, assertions []string) []fpv.Result {
	err := v.err
	var nl *verilog.Netlist
	if err == nil {
		if nl, err = bench.Elaborate(design.internal()); err != nil {
			err = fmt.Errorf("design %s does not elaborate: %w", design.Name, err)
		}
	}
	if err != nil {
		out := make([]fpv.Result, len(assertions))
		for i := range out {
			out[i] = fpv.Result{Status: fpv.StatusError, Err: err}
		}
		return out
	}
	eng := v.pool.Get().(*fpv.Engine)
	defer v.pool.Put(eng)
	return eng.VerifyAll(ctx, nl, assertions, v.opt)
}

// batchCapable marks public Verifiers that can verify a whole candidate
// list in one call (the built-in FPV verifier qualifies).
type batchCapable interface {
	verifyBatch(ctx context.Context, design Design, assertions []string) []fpv.Result
}

// verifierAdapter lowers a public Verifier into the evaluation runner.
// It always satisfies eval.BatchVerifier: batch-capable verifiers get the
// whole candidate list, everything else falls back to the per-assertion
// loop the runner would otherwise drive itself.
type verifierAdapter struct {
	v Verifier
}

func (a verifierAdapter) Verify(ctx context.Context, d bench.Design, _ *verilog.Netlist, assertion string, _ fpv.Options) fpv.Result {
	return a.v.Verify(ctx, newDesign(d), assertion).internal()
}

func (a verifierAdapter) VerifyBatch(ctx context.Context, d bench.Design, nl *verilog.Netlist, assertions []string, opt fpv.Options) []fpv.Result {
	if bc, ok := a.v.(batchCapable); ok {
		return bc.verifyBatch(ctx, newDesign(d), assertions)
	}
	out := make([]fpv.Result, 0, len(assertions))
	for _, s := range assertions {
		out = append(out, a.Verify(ctx, d, nl, s, opt))
		if ctx.Err() != nil {
			break
		}
	}
	for len(out) < len(assertions) {
		out = append(out, fpv.Result{Status: fpv.StatusError, Err: ctx.Err()})
	}
	return out
}

// VerifierKey identifies the built-in verifier by the options it
// verifies with (its own, not the run's). Any other Verifier, and a
// built-in one whose bounds were rejected, has no identity the runner
// could key records on, so its outcomes are never journaled.
func (a verifierAdapter) VerifierKey(fpv.Options) string {
	if fv, ok := a.v.(*fpvVerifier); ok && fv.err == nil {
		return eval.EngineKey(fv.opt)
	}
	return ""
}

var _ eval.Verifier = verifierAdapter{}
var _ eval.BatchVerifier = verifierAdapter{}
var _ eval.KeyedVerifier = verifierAdapter{}

// VerifyAssertions formally verifies assertion texts against a design
// given as Verilog source, one result per input in order. The batch
// shares one reachability exploration; elaboration and the exploration
// go through the process-wide caches (see PurgeCaches). Cancelling ctx
// stops the batch and returns the completed prefix alongside ctx.Err(),
// so interruption is never mistaken for per-assertion failures.
func VerifyAssertions(ctx context.Context, designSource string, assertions []string, opt VerifyOptions) ([]VerifyResult, error) {
	fopt, err := opt.internal()
	if err != nil {
		return nil, err
	}
	nl, err := elaborateSource(designSource)
	if err != nil {
		return nil, err
	}
	eng := fpv.NewEngine()
	eng.Graphs = bench.DefaultElab.Graphs()
	results := eng.VerifyAll(ctx, nl, assertions, fopt)
	out := make([]VerifyResult, 0, len(assertions))
	for i, r := range results {
		// Preserve the documented prefix contract under cancellation: the
		// first canceled result ends the batch.
		if ctxErr := ctx.Err(); ctxErr != nil && r.Status == fpv.StatusError && errors.Is(r.Err, ctxErr) {
			return out, ctxErr
		}
		out = append(out, newVerifyResult(nl, assertions[i], r))
	}
	return out, nil
}

// elaborateSource elaborates raw Verilog through the process-wide cache,
// so repeated façade calls on the same source pay for the front end once.
func elaborateSource(designSource string) (*verilog.Netlist, error) {
	nl, err := bench.Elaborate(bench.Design{Source: designSource})
	if err != nil {
		return nil, fmt.Errorf("design does not elaborate: %w", err)
	}
	return nl, nil
}

// SplitAssertions splits raw generator output (or an assertion file) into
// individual candidate assertion lines, the way the evaluation pipeline
// does before correction. Useful for custom Generator implementations
// that produce free-form text.
func SplitAssertions(text string) []string {
	return sva.SplitAssertions(text)
}

// CorrectAssertions runs the paper's Fig. 4 stage-3 rule-based syntax
// corrector over candidate lines. If the design does not elaborate the
// lines are returned unchanged (the corrector needs a netlist to resolve
// signal names against).
func CorrectAssertions(designSource string, assertions []string) []string {
	nl, err := elaborateSource(designSource)
	if err != nil {
		return assertions
	}
	fixed, _ := corrector.New(nl).CorrectAll(assertions)
	return fixed
}
