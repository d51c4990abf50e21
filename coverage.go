package assertionbench

import (
	"context"
	"fmt"

	"assertionbench/internal/coverage"
)

// AssertionCoverage is the contribution of a single assertion to a
// coverage report.
type AssertionCoverage struct {
	Assertion   string
	Activations int
	Signals     int
}

// CoverageReport is the coverage measurement of one assertion set on one
// design (paper Sec. X, directions i and ii).
type CoverageReport struct {
	// Assertions measured; parse failures are skipped and counted.
	Assertions int
	Skipped    int
	// SignalCoverage in [0,1]: mentioned interesting nets / all
	// interesting nets; CoveredSignals/MissedSignals name them.
	SignalCoverage float64
	CoveredSignals []string
	MissedSignals  []string
	// ActivationCoverage in [0,1]: cycles with >= 1 antecedent match.
	ActivationCoverage float64
	// StateCoverage in [0,1]: distinct states with >= 1 antecedent match
	// over distinct states visited (StatesVisited).
	StateCoverage float64
	StatesVisited int
	PerAssertion  []AssertionCoverage
}

// Goodness is the combined scalar in [0,1].
func (r CoverageReport) Goodness() float64 {
	return (r.SignalCoverage + r.ActivationCoverage + r.StateCoverage) / 3
}

func (r CoverageReport) String() string {
	return fmt.Sprintf("signals=%.2f activation=%.2f states=%.2f goodness=%.2f (%d assertions, %d skipped)",
		r.SignalCoverage, r.ActivationCoverage, r.StateCoverage, r.Goodness(), r.Assertions, r.Skipped)
}

// CoverageOptions configure MeasureCoverage.
type CoverageOptions struct {
	// TraceCycles per trace (default 256) and Traces (default 3).
	TraceCycles int
	Traces      int
	// Seed drives the stimulus.
	Seed int64
	// VerifiedOnly restricts measurement to FPV-proven assertions — the
	// goodness of the sound part of a generated set.
	VerifiedOnly bool
	// Verify bounds the FPV filter when VerifiedOnly is set.
	Verify VerifyOptions
}

// MeasureCoverage computes the signal / activation / state coverage of an
// assertion set on a design given as Verilog source.
func MeasureCoverage(ctx context.Context, designSource string, assertions []string, opt CoverageOptions) (CoverageReport, error) {
	nl, err := elaborateSource(designSource)
	if err != nil {
		return CoverageReport{}, err
	}
	copt := coverage.Options{TraceCycles: opt.TraceCycles, Traces: opt.Traces, Seed: opt.Seed}
	var rep coverage.Report
	if opt.VerifiedOnly {
		fopt, ferr := opt.Verify.internal()
		if ferr != nil {
			return CoverageReport{}, ferr
		}
		rep, err = coverage.MeasureVerified(ctx, nl, assertions, fopt, copt)
	} else {
		rep, err = coverage.Measure(ctx, nl, assertions, copt)
	}
	if err != nil {
		return CoverageReport{}, err
	}
	out := CoverageReport{
		Assertions:         rep.Assertions,
		Skipped:            rep.Skipped,
		SignalCoverage:     rep.SignalCoverage,
		CoveredSignals:     rep.CoveredSignals,
		MissedSignals:      rep.MissedSignals,
		ActivationCoverage: rep.ActivationCoverage,
		StateCoverage:      rep.StateCoverage,
		StatesVisited:      rep.StatesVisited,
	}
	for _, pa := range rep.PerAssertion {
		out.PerAssertion = append(out.PerAssertion, AssertionCoverage(pa))
	}
	return out, nil
}
