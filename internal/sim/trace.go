package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"assertionbench/internal/verilog"
)

// Trace is a recorded simulation: one value vector (indexed by net index)
// per cycle. Values are sampled pre-edge (inputs applied, combinational
// logic settled, registers still holding their cycle-start values), the
// same convention the FPV engine uses, so trace-mined temporal relations
// verify unchanged.
type Trace struct {
	Netlist *verilog.Netlist
	Cycles  [][]uint64
}

// Len returns the number of recorded cycles.
func (t *Trace) Len() int { return len(t.Cycles) }

// Value returns the value of net index at cycle.
func (t *Trace) Value(cycle, net int) uint64 { return t.Cycles[cycle][net] }

// ValueOf returns the value of the named net at cycle.
func (t *Trace) ValueOf(cycle int, name string) (uint64, error) {
	i := t.Netlist.NetIndex(name)
	if i < 0 {
		return 0, fmt.Errorf("sim: no net named %q", name)
	}
	return t.Cycles[cycle][i], nil
}

// String renders the trace as a waveform-style table of all nets, intended
// for debugging and CEX reporting.
func (t *Trace) String() string {
	var sb strings.Builder
	names := make([]string, len(t.Netlist.Nets))
	widest := 5
	for i, n := range t.Netlist.Nets {
		names[i] = n.Name
		if len(n.Name) > widest {
			widest = len(n.Name)
		}
	}
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
	fmt.Fprintf(&sb, "%-*s", widest+2, "cycle")
	for c := range t.Cycles {
		fmt.Fprintf(&sb, "%6d", c)
	}
	sb.WriteByte('\n')
	for _, i := range order {
		fmt.Fprintf(&sb, "%-*s", widest+2, names[i])
		for c := range t.Cycles {
			fmt.Fprintf(&sb, "%6x", t.Cycles[c][i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RandomTrace simulates cycles steps of uniformly random stimulus from the
// power-on state (after resetCycles of holding every *rst*-named input
// high) and records every cycle. Deterministic for a given seed. It runs
// the compiled backend, which is bit-identical to the interpreter
// (CompareBackends), and draws the same random numbers in the same order
// as RandomInputs would.
func RandomTrace(nl *verilog.Netlist, cycles, resetCycles int, seed int64) (*Trace, error) {
	tr := &Trace{Netlist: nl}
	if cycles <= 0 {
		return tr, nil
	}
	rng := rand.New(rand.NewSource(seed))
	s := NewCompiled(nl)
	// resets lists the reset-like data inputs by input position.
	var resets []int
	for k, idx := range nl.Inputs {
		if isResetName(nl.Nets[idx].Name) {
			resets = append(resets, k)
		}
	}
	vals := make([]uint64, len(nl.Inputs))
	draw := func() {
		for k := range vals {
			vals[k] = rng.Uint64() & s.inMasks[k]
		}
	}
	// Drive reset-like inputs high first so FSMs leave their power-on state
	// the way a testbench would.
	for i := 0; i < resetCycles; i++ {
		draw()
		for _, k := range resets {
			vals[k] = 1 & s.inMasks[k]
		}
		if err := s.StepWith(vals); err != nil {
			return nil, err
		}
	}
	width := len(nl.Nets)
	block := make([]uint64, cycles*width)
	tr.Cycles = make([][]uint64, cycles)
	for i := range tr.Cycles {
		draw()
		for _, k := range resets {
			// Occasional mid-run resets exercise recovery behaviour but
			// mostly stay deasserted.
			if rng.Intn(32) == 0 {
				vals[k] = 1 & s.inMasks[k]
			} else {
				vals[k] = 0
			}
		}
		if err := s.SetInputs(vals); err != nil {
			return nil, err
		}
		s.Settle()
		row := block[i*width : (i+1)*width : (i+1)*width]
		copy(row, s.Env())
		tr.Cycles[i] = row
		s.Step()
	}
	return tr, nil
}

// isResetName reports whether a signal name looks like a reset.
func isResetName(name string) bool {
	base := name
	if i := strings.LastIndexByte(base, '.'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.ToLower(base)
	return strings.Contains(base, "rst") || strings.Contains(base, "reset") || strings.Contains(base, "clear")
}
