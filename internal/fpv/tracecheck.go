package fpv

import (
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// TraceViolation reports one assertion failure observed on a recorded
// simulation trace.
type TraceViolation struct {
	// AttemptCycle is where the violated evaluation attempt started.
	AttemptCycle int
	// ViolationCycle is where the consequent failed.
	ViolationCycle int
}

// CheckTrace runs the assertion's monitor over a recorded trace and
// returns every violation plus whether the antecedent ever matched
// (non-vacuity witness). This is the simulation-based ABV counterpart of
// the model checker: sound for refutation, not for proof.
func CheckTrace(nl *verilog.Netlist, a *sva.Assertion, tr *sim.Trace) ([]TraceViolation, bool, error) {
	c, err := sva.Compile(a, nl)
	if err != nil {
		return nil, false, err
	}
	violations, nonVacuous := CheckTraceCompiled(nl, c, tr, nil)
	return violations, nonVacuous, nil
}

// StepFunc advances a monitor by one sampled cycle. The differential
// harness (internal/dverify) injects mutated steppers through this seam
// to prove its oracles catch monitor defects; nil means Monitor.Step.
type StepFunc func(m *sva.Monitor, hist [][]uint64) sva.Outcome

// CheckTraceCompiled is the single trace-checking loop behind CheckTrace
// and the differential harness: history is zero-padded before the trace
// start (the power-on convention the model checker's root shares), so a
// trace recorded from power-on is checked exactly as the engine would
// explore it. The monitor runs on the default compiled backend (falling
// back to the closure evaluators only if lowering fails, which the
// dverify harness would flag); CheckTraceBackend selects explicitly.
func CheckTraceCompiled(nl *verilog.Netlist, c *sva.Compiled, tr *sim.Trace, step StepFunc) ([]TraceViolation, bool) {
	v, nonVacuous, err := CheckTraceBackend(nl, c, tr, step, false)
	if err != nil {
		v, nonVacuous, _ = CheckTraceBackend(nl, c, tr, step, true)
	}
	return v, nonVacuous
}

// CheckTraceBackend runs the trace-checking loop with the monitor on the
// compiled backend, or on the reference tree-walk when interp is set. The
// only possible error is a lowering failure on the compiled backend.
func CheckTraceBackend(nl *verilog.Netlist, c *sva.Compiled, tr *sim.Trace, step StepFunc, interp bool) ([]TraceViolation, bool, error) {
	var mon *sva.Monitor
	if interp {
		mon = sva.NewMonitor(c)
	} else {
		m, err := sva.NewMonitorCompiled(c)
		if err != nil {
			return nil, false, err
		}
		mon = m
	}
	if step == nil {
		step = func(m *sva.Monitor, hist [][]uint64) sva.Outcome { return m.Step(hist) }
	}
	var violations []TraceViolation
	nonVacuous := false
	zero := make([]uint64, len(nl.Nets))
	hist := make([][]uint64, c.PastDepth+1)
	for t := 0; t < tr.Len(); t++ {
		hist[0] = tr.Cycles[t]
		for k := 1; k <= c.PastDepth; k++ {
			if t-k >= 0 {
				hist[k] = tr.Cycles[t-k]
			} else {
				hist[k] = zero
			}
		}
		out := step(mon, hist)
		if out.AnteCompleted {
			nonVacuous = true
		}
		if out.Violated {
			violations = append(violations, TraceViolation{
				AttemptCycle:   t - out.ViolatedAge,
				ViolationCycle: t,
			})
		}
	}
	return violations, nonVacuous, nil
}
