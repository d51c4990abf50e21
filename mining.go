package assertionbench

import (
	"context"
	"fmt"

	"assertionbench/internal/mine"
	"assertionbench/internal/verilog"
)

// MinedAssertion is one formally verified assertion produced by a miner,
// with its ranking metadata.
type MinedAssertion struct {
	// Assertion is the SVA text (no trailing semicolon).
	Assertion string
	// Support is the number of trace positions where the antecedent held;
	// Coverage is Support normalized by trace length.
	Support  int
	Coverage float64
	// Complexity counts atoms plus temporal window length (rank input);
	// Rank is the figure of merit (higher is better).
	Complexity int
	Rank       float64
	// Status is the FPV verdict (always a passing verdict — miners drop
	// unproven candidates).
	Status VerifyStatus
}

// MineOptions configure MineAssertions. A negative TraceCycles or
// MaxAssertions is an error.
type MineOptions struct {
	// Miner selects the pipeline: "goldmine", "harm", "security", or
	// "both" (GOLDMINE + HARM, the default).
	Miner string
	// Seed drives stimulus generation. Default 1.
	Seed int64
	// TraceCycles is the random-stimulus trace length. Default 512.
	TraceCycles int
	// MaxAssertions bounds the output. Default 16.
	MaxAssertions int
	// Verify bounds the miners' FPV filter.
	Verify VerifyOptions
}

// MineAssertions runs the selected classical miners on a design and
// returns ranked, deduplicated, formally verified assertions — the
// paper's Sec. III mining pipeline as a one-call API. Cancelling ctx
// aborts the FPV filter with ctx.Err().
func MineAssertions(ctx context.Context, designSource string, opt MineOptions) ([]MinedAssertion, error) {
	nl, err := elaborateSource(designSource)
	if err != nil {
		return nil, err
	}
	if opt.MaxAssertions == 0 {
		// The cap applies to the merged output below, not just per miner:
		// "both" must not return double the documented default.
		opt.MaxAssertions = 16
	}
	fopt, err := opt.Verify.internal()
	if err != nil {
		return nil, err
	}
	mopt := mine.Options{
		Seed:          opt.Seed,
		TraceCycles:   opt.TraceCycles,
		MaxAssertions: opt.MaxAssertions,
		FPV:           fopt,
	}
	var miner func(context.Context, *verilog.Netlist, mine.Options) ([]mine.Mined, error)
	switch opt.Miner {
	case "", "both":
		miner = mine.Both
	case "goldmine":
		miner = mine.GoldMine
	case "harm":
		miner = mine.Harm
	case "security":
		miner = mine.Security
	default:
		return nil, fmt.Errorf("unknown miner %q (want goldmine|harm|security|both)", opt.Miner)
	}
	mined, err := miner(ctx, nl, mopt)
	if err != nil {
		return nil, err
	}
	mine.Rank(mined)
	seen := map[string]bool{}
	var out []MinedAssertion
	for _, m := range mined {
		s := m.Assertion.String()
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, MinedAssertion{
			Assertion:  s,
			Support:    m.Support,
			Coverage:   m.Coverage,
			Complexity: m.Complexity,
			Rank:       m.Rank,
			Status:     newVerifyStatus(m.Result.Status),
		})
		if len(out) >= opt.MaxAssertions {
			break
		}
	}
	return out, nil
}

// TaintCheck runs the two-trace information-flow analysis (paper Sec. X
// direction (iii)): stimulus pairs identical except in a secret input are
// simulated; any output divergence at a cycle where guard holds
// lockedValue is a leak. guard may be "" to check unconditional
// non-interference. Returns one human-readable description per leak.
func TaintCheck(ctx context.Context, designSource, guard string, lockedValue uint64, runs, depth int, seed int64) ([]string, error) {
	nl, err := elaborateSource(designSource)
	if err != nil {
		return nil, err
	}
	leaks, err := mine.TaintCheck(ctx, nl, guard, lockedValue, runs, depth, seed)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(leaks))
	for i, l := range leaks {
		out[i] = l.String()
	}
	return out, nil
}
