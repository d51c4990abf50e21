// Package fpv is a formal property verification engine for elaborated
// Verilog netlists and the paper's SVA subset. It substitutes for the
// commercial JasperGold engine in the evaluation pipeline (Fig. 4 / Fig. 8
// of the paper): explicit-state breadth-first reachability over the
// product of the design's state space and the assertion's monitor
// automaton, with vacuity detection and counter-example extraction.
//
// When the design's data-input width or the product state count exceeds
// configured bounds, the engine degrades to bounded exploration (sampled
// inputs and/or depth-bounded search) the way industrial BMC flows do; a
// property that survives bounded search is reported StatusBoundedPass.
package fpv

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// Status is the verdict lattice of the paper's Fig. 2, extended with the
// bounded verdict.
type Status int

// Verdicts.
const (
	// StatusProven: exhaustive search closed with no violation and the
	// antecedent reachable (the "Valid" outcome of Fig. 2).
	StatusProven Status = iota
	// StatusVacuous: exhaustive search closed, no violation, but the
	// antecedent (pre-condition) is unreachable.
	StatusVacuous
	// StatusBoundedPass: bounded search found no violation.
	StatusBoundedPass
	// StatusCEX: a counter-example trace refutes the assertion.
	StatusCEX
	// StatusError: the assertion failed to parse or type-check.
	StatusError
	// StatusUnknown: a verification budget (a context deadline carried by
	// ctx) expired before the search decided the property. Unlike
	// StatusError-with-ctx.Err() — which marks an externally canceled call
	// whose results a caller should discard — an unknown verdict is a
	// well-defined anytime outcome: the property was neither proven nor
	// refuted within the budget, and a rerun with a larger budget (warm
	// caches make it cheaper) converges to the
	// unbudgeted verdict.
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusProven:
		return "proven"
	case StatusVacuous:
		return "vacuous"
	case StatusBoundedPass:
		return "bounded_pass"
	case StatusCEX:
		return "cex"
	case StatusError:
		return "error"
	case StatusUnknown:
		return "unknown"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// IsPass reports whether the verdict counts toward the paper's Pass
// metric (valid + vacuous outcomes).
func (s Status) IsPass() bool {
	return s == StatusProven || s == StatusVacuous || s == StatusBoundedPass
}

// CEX is a counter-example: the input stimulus per cycle plus the sampled
// values of every net along the refuting path.
type CEX struct {
	// Inputs[t] is the data-input vector (netlist input order) at cycle t.
	Inputs [][]uint64
	// Sampled[t] is the full sampled environment at cycle t.
	Sampled [][]uint64
	// ViolationCycle is the cycle at which the consequent failed.
	ViolationCycle int
	// AttemptCycle is the cycle at which the violated attempt started.
	AttemptCycle int
}

// bytes estimates what the counter-example retains, its stimulus and
// sampled rows included (0 for nil).
func (c *CEX) bytes() int64 {
	if c == nil {
		return 0
	}
	n := 64 + 24*(cap(c.Inputs)+cap(c.Sampled))
	for _, row := range c.Inputs {
		n += 8 * cap(row)
	}
	for _, row := range c.Sampled {
		n += 8 * cap(row)
	}
	return int64(n)
}

// Format renders the counter-example against the netlist for diagnostics.
func (c *CEX) Format(nl *verilog.Netlist) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "counter-example: attempt @%d violated @%d\n", c.AttemptCycle, c.ViolationCycle)
	widest := 5
	for _, n := range nl.Nets {
		if len(n.Name) > widest {
			widest = len(n.Name)
		}
	}
	fmt.Fprintf(&sb, "%-*s", widest+2, "cycle")
	for t := range c.Sampled {
		fmt.Fprintf(&sb, "%5d", t)
	}
	sb.WriteByte('\n')
	for _, n := range nl.Nets {
		fmt.Fprintf(&sb, "%-*s", widest+2, n.Name)
		for t := range c.Sampled {
			fmt.Fprintf(&sb, "%5x", c.Sampled[t][n.Index])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Result is the outcome of verifying one assertion.
type Result struct {
	Status Status
	// Err explains StatusError results.
	Err error
	// CEX is non-nil for StatusCEX. Treat it as read-only: a result
	// served from a GraphCache's verdict memo shares its CEX with every
	// other caller served the same verdict.
	CEX *CEX
	// NonVacuous reports whether any explored path matched the antecedent.
	NonVacuous bool
	// Exhaustive reports whether the product space was fully closed.
	Exhaustive bool
	// States is the number of distinct product states visited.
	States int
	// Depth is the deepest cycle reached.
	Depth int
	// Static reports that the verdict was discharged by the static
	// pre-verification pass (internal/vstatic) without any state-space
	// search. Static results are always sound: proofs and vacuity come
	// from the abstract fixpoint, and counter-examples are confirmed by
	// concrete replay before being reported.
	Static bool
}

// Options configure the engine.
type Options struct {
	// MaxProductStates bounds the BFS frontier before degrading to
	// bounded mode. Default 200000.
	MaxProductStates int
	// MaxInputBits is the widest data-input vector enumerated
	// exhaustively per state. Default 12.
	MaxInputBits int
	// MaxInputSamples is the number of input vectors tried per state when
	// enumeration is infeasible. Default 24.
	MaxInputSamples int
	// RandomRuns and RandomDepth configure the random-walk violation hunt
	// appended in bounded mode. Defaults 256 and 64.
	RandomRuns  int
	RandomDepth int
	// Seed makes bounded exploration deterministic. Default 1.
	Seed int64

	// Reference switches. Each zero value is the production path; setting
	// one swaps a layer for the reference implementation a dverify oracle
	// compares it against. None is reachable from the public API.

	// Interp runs design and monitor on the reference tree-walk instead
	// of the lowered register-machine programs. Verdicts are
	// bit-identical (dverify oracle 4).
	Interp bool
	// FullDesign explores the full design instead of projecting each
	// property's search onto the transitive fan-in of its support nets
	// (verilog.Cone). Verdicts agree semantically — identical when both
	// runs are exhaustive, and any counter-example replays on the full
	// design (dverify oracle 6).
	FullDesign bool
	// NoStatic skips the abstract-interpretation pre-verification pass,
	// which classifies each property against the design's
	// ternary-lattice fixpoint and returns statically decided ones
	// without exploring a state. Verdicts agree semantically (dverify
	// oracle 8): static proofs and vacuity match what exhaustive search
	// concludes, static counter-examples are confirmed by concrete
	// replay, and an undischarged property searches exactly as it would
	// with the pass off.
	NoStatic bool
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.MaxProductStates == 0 {
		o.MaxProductStates = 200000
	}
	if o.MaxInputBits == 0 {
		o.MaxInputBits = 12
	}
	if o.MaxInputSamples == 0 {
		o.MaxInputSamples = 24
	}
	if o.RandomRuns == 0 {
		o.RandomRuns = 256
	}
	if o.RandomDepth == 0 {
		o.RandomDepth = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ctxResult classifies a context error into the result an interrupted
// search returns: an expired deadline is a budget running out — a
// legitimate anytime outcome, StatusUnknown — while a cancellation is an
// external abort and stays StatusError, so existing callers that treat
// canceled verdicts as discardable keep doing so. Every search loop in
// the engine polls its context (each 64 BFS expansions, each hunt run),
// so a budgeted call stops within microseconds of its deadline.
func ctxResult(err error) Result {
	if errors.Is(err, context.DeadlineExceeded) {
		return Result{Status: StatusUnknown, Err: err}
	}
	return Result{Status: StatusError, Err: err}
}

// Verify parses nothing: it verifies an already-parsed assertion with a
// one-shot engine. The search loops poll ctx; a canceled call returns
// StatusError with Err set to ctx.Err(), and a call whose ctx deadline
// expired returns StatusUnknown (the budgeted early-out).
func Verify(ctx context.Context, nl *verilog.Netlist, a *sva.Assertion, opt Options) Result {
	return NewEngine().Verify(ctx, nl, a, opt)
}

// VerifySource parses and verifies an assertion given as text with a
// one-shot engine.
func VerifySource(ctx context.Context, nl *verilog.Netlist, src string, opt Options) Result {
	return NewEngine().VerifySource(ctx, nl, src, opt)
}

// VerifyAll verifies a batch of assertion texts, returning one result per
// input in order. The batch shares one reusable engine.
func VerifyAll(ctx context.Context, nl *verilog.Netlist, srcs []string, opt Options) []Result {
	return NewEngine().VerifyAll(ctx, nl, srcs, opt)
}
