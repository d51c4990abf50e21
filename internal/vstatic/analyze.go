package vstatic

import (
	"assertionbench/internal/verilog"
)

// Analysis is the abstract fixpoint of a netlist. Env abstracts every
// value environment the concrete simulator can present at a sample
// point (post-settle, any reachable register state, any input vector,
// any clock phase, and any stale-value mix the engine's state jumping
// can produce — the concretization is a per-net product, so mixes of
// covered environments are covered). Analyses are pure functions of the
// netlist; obtain the shared memoized instance with For.
type Analysis struct {
	nl *verilog.Netlist
	// Env is the abstract sample environment, one Bits per net index.
	Env []Bits
	// Cyclic is set when the comb logic has no topological order; the
	// analysis then claims nothing (everything unconstrained).
	Cyclic bool
}

// For returns the memoized analysis of nl, computing it on first use.
func For(nl *verilog.Netlist) *Analysis {
	return nl.Analysis(func(nl *verilog.Netlist) any { return Analyze(nl) }).(*Analysis)
}

// Analyze runs the known-bits fixpoint over the netlist. The loop
// maintains S, a join over every environment seen so far (power-on
// zeros, settled sample environments T with inputs and clocks
// unconstrained, and post-clock-edge environments U), and iterates the
// abstract settle/step transfers until S stops changing. Termination:
// Join only clears Known bits, so S descends a finite lattice.
func Analyze(nl *verilog.Netlist) *Analysis {
	a := &Analysis{nl: nl}
	n := len(nl.Nets)
	if len(nl.CombOrder) != len(nl.Assigns)+len(nl.Combs) {
		// Cyclic comb logic: the simulator falls back to bounded fixpoint
		// relaxation, which the ordered abstract settle does not mirror.
		a.Cyclic = true
		a.Env = make([]Bits, n)
		for i := range a.Env {
			a.Env[i] = Top(nl.Nets[i].Width)
		}
		return a
	}
	s := make(aenv, n)
	for i := range s {
		s[i] = Const(0)
	}
	// Each productive iteration clears at least one Known bit, so 64*n+1
	// iterations always suffice; the widening fallback is a safety net.
	for limit := 64*n + 1; ; limit-- {
		t := s.clone()
		driveTop(t, nl)
		settle(t, nl)
		u := t.clone()
		step(u, nl)
		settle(u, nl)
		changed := s.joinWith(t)
		if s.joinWith(u) {
			changed = true
		}
		if !changed {
			break
		}
		if limit <= 0 {
			for i := range s {
				s[i] = Top(nl.Nets[i].Width)
			}
			break
		}
	}
	sample := s.clone()
	driveTop(sample, nl)
	settle(sample, nl)
	a.Env = sample
	return a
}

// ConstOf returns the net's value if it is statically constant.
func (a *Analysis) ConstOf(net int) (uint64, bool) {
	b := a.Env[net]
	return b.Val, b.IsConst()
}

// aenv is an abstract value environment indexed by net.
type aenv []Bits

func (env aenv) clone() aenv {
	out := make(aenv, len(env))
	copy(out, env)
	return out
}

// joinWith joins o into env in place and reports whether env changed.
func (env aenv) joinWith(o aenv) bool {
	changed := false
	for i := range env {
		j := Join(env[i], o[i])
		if j != env[i] {
			env[i] = j
			changed = true
		}
	}
	return changed
}

// driveTop makes every data input and clock unconstrained.
func driveTop(env aenv, nl *verilog.Netlist) {
	for _, i := range nl.Inputs {
		env[i] = Top(nl.Nets[i].Width)
	}
	for _, i := range nl.Clocks {
		env[i] = Top(nl.Nets[i].Width)
	}
}

// settle runs the abstract combinational pass in CombOrder, mirroring
// the simulator's acyclic settle. Non-blocking writes inside comb
// processes are discarded, matching the concrete machines (queued then
// dropped at the next Step).
func settle(env aenv, nl *verilog.Netlist) {
	na := len(nl.Assigns)
	for _, item := range nl.CombOrder {
		if item < na {
			execAssign(&nl.Assigns[item], nl, env)
		} else {
			execStmt(nl.Combs[item-na].Body, nl, env, nil)
		}
	}
}

// step is the abstract clock edge: every sequential process runs in
// netlist order sharing one environment (blocking writes visible to
// later processes), then pending non-blocking writes commit.
func step(env aenv, nl *verilog.Netlist) {
	nb := newNBState(len(nl.Nets))
	for _, p := range nl.Seqs {
		execStmt(p.Body, nl, env, nb)
	}
	nb.commit(env, nl)
}

// nbKind tracks what is known about a net's pending non-blocking write.
type nbKind uint8

const (
	nbNone    nbKind = iota // no pending write: net keeps its value
	nbWritten               // definitely fully written with val
	nbMaybe                 // maybe written with val, maybe untouched
	nbTop                   // written in some unmodelled way
)

type nbState struct {
	kind []nbKind
	val  []Bits
}

func newNBState(n int) *nbState {
	return &nbState{kind: make([]nbKind, n), val: make([]Bits, n)}
}

func (nb *nbState) clone() *nbState {
	if nb == nil {
		return nil
	}
	out := newNBState(len(nb.kind))
	copy(out.kind, nb.kind)
	copy(out.val, nb.val)
	return out
}

// commit applies the pending writes to env, mirroring NBWrite.Apply.
func (nb *nbState) commit(env aenv, nl *verilog.Netlist) {
	for n, k := range nb.kind {
		switch k {
		case nbWritten:
			env[n] = nb.val[n]
		case nbMaybe:
			env[n] = Join(env[n], nb.val[n])
		case nbTop:
			env[n] = Top(nl.Nets[n].Width)
		}
	}
}

// joinState merges a branch state (env2, nb2) into (env, nb) in place.
func joinState(env aenv, nb *nbState, env2 aenv, nb2 *nbState) {
	env.joinWith(env2)
	if nb == nil {
		return
	}
	for n := range nb.kind {
		a, b := nb.kind[n], nb2.kind[n]
		switch {
		case a == b && a == nbNone:
		case a == nbTop || b == nbTop:
			nb.kind[n] = nbTop
		case a == nbNone || b == nbNone:
			// Written on one side only: the write may or may not land.
			nb.kind[n] = nbMaybe
			if a == nbNone {
				nb.val[n] = nb2.val[n]
			}
		default:
			if a == nbMaybe || b == nbMaybe {
				nb.kind[n] = nbMaybe
			}
			nb.val[n] = Join(nb.val[n], nb2.val[n])
		}
	}
}

// lrefWidth mirrors verilog's refWidth.
func lrefWidth(l *verilog.LRef, nl *verilog.Netlist) int {
	switch {
	case l.IsBit:
		return 1
	case l.IsPart:
		return l.W
	default:
		return nl.Nets[l.Net].Width
	}
}

// assignRef is the abstract counterpart of resolveRef + write. Blocking
// writes update env immediately; non-blocking writes update the pending
// state (or are discarded when nb is nil, i.e. inside comb settle).
func assignRef(l *verilog.LRef, nl *verilog.Netlist, env aenv, nb *nbState, v Bits, blocking bool) {
	netW := nl.Nets[l.Net].Width
	if blocking {
		switch {
		case l.IsBit:
			idx := evalExpr(l.BitIdx, env)
			if idx.IsConst() {
				if idx.Val >= uint64(netW) || idx.Val >= 64 {
					return // out-of-range index writes nothing
				}
				env[l.Net] = insertPart(env[l.Net], v, int(idx.Val), 1)
				return
			}
			env[l.Net] = blendBit(env[l.Net], v, netW)
		case l.IsPart:
			env[l.Net] = insertPart(env[l.Net], v, l.Lo, l.W)
		default:
			env[l.Net] = v.mask(netW)
		}
		return
	}
	if nb == nil {
		return // comb-settle NB writes are never applied by the machines
	}
	switch {
	case !l.IsBit && !l.IsPart:
		// Unconditional full write: the last such write wins regardless of
		// any earlier pending state.
		nb.kind[l.Net] = nbWritten
		nb.val[l.Net] = v.mask(netW)
	case nb.kind[l.Net] == nbWritten:
		// Refining a fully pending value in place.
		if l.IsPart {
			nb.val[l.Net] = insertPart(nb.val[l.Net], v, l.Lo, l.W)
			return
		}
		idx := evalExpr(l.BitIdx, env)
		if idx.IsConst() {
			if idx.Val >= uint64(netW) || idx.Val >= 64 {
				return
			}
			nb.val[l.Net] = insertPart(nb.val[l.Net], v, int(idx.Val), 1)
			return
		}
		nb.kind[l.Net] = nbTop
	default:
		// Partial write over an unknown base (the commit-time value):
		// give the net up entirely.
		nb.kind[l.Net] = nbTop
	}
}

// execAssign is the abstract continuous assignment (ExecAssign mirror).
func execAssign(a *verilog.CompiledAssign, nl *verilog.Netlist, env aenv) {
	v := evalExpr(a.RHS, env)
	if len(a.LHS) == 1 {
		assignRef(&a.LHS[0], nl, env, nil, v, true)
		return
	}
	shift := uint64(0)
	for i := len(a.LHS) - 1; i >= 0; i-- {
		l := &a.LHS[i]
		w := lrefWidth(l, nl)
		part := shrConst(v, shift).mask(w)
		assignRef(l, nl, env, nil, part, true)
		shift += uint64(w)
	}
}

// execStmt is the abstract ExecStmt: branch conditions with unknown
// truth execute both arms on forked states and join.
func execStmt(s *verilog.EStmt, nl *verilog.Netlist, env aenv, nb *nbState) {
	if s == nil {
		return
	}
	switch s.Op {
	case verilog.SBlock:
		for _, sub := range s.Stmts {
			execStmt(sub, nl, env, nb)
		}

	case verilog.SAssign:
		v := evalExpr(s.RHS, env)
		if len(s.LHS) == 1 {
			assignRef(&s.LHS[0], nl, env, nb, v, s.Blocking)
			return
		}
		shift := uint64(0)
		for i := len(s.LHS) - 1; i >= 0; i-- {
			l := &s.LHS[i]
			w := lrefWidth(l, nl)
			part := shrConst(v, shift).mask(w)
			assignRef(l, nl, env, nb, part, s.Blocking)
			shift += uint64(w)
		}

	case verilog.SIf:
		switch truth(evalExpr(s.Cond, env)) {
		case triTrue:
			execStmt(s.Then, nl, env, nb)
		case triFalse:
			execStmt(s.Else, nl, env, nb)
		default:
			env2, nb2 := env.clone(), nb.clone()
			execStmt(s.Then, nl, env, nb)
			execStmt(s.Else, nl, env2, nb2)
			joinState(env, nb, env2, nb2)
		}

	case verilog.SCase:
		subj := evalExpr(s.Subject, env)
		if subj.IsConst() {
			// With several labels matching the same value (overlapping
			// casez patterns, or duplicate labels where the elaborated
			// labelMap tie-break is not observable here) join the matching
			// arms so any tie-break is covered.
			var matched []*verilog.EStmt
			for i, labels := range s.Labels {
				for _, lab := range labels {
					if lab.Matches(subj.Val) {
						matched = append(matched, s.Arms[i])
						break
					}
				}
			}
			switch len(matched) {
			case 0:
				execStmt(s.Default, nl, env, nb)
			case 1:
				execStmt(matched[0], nl, env, nb)
			default:
				execArmsJoined(matched, nl, env, nb)
			}
			return
		}
		// Unknown subject: any arm (or the default, or — with a nil
		// default — no arm at all) may run.
		arms := make([]*verilog.EStmt, 0, len(s.Arms)+1)
		arms = append(arms, s.Arms...)
		arms = append(arms, s.Default) // nil means "no statement runs"
		execArmsJoined(arms, nl, env, nb)
	}
}

// execArmsJoined executes each arm on a forked copy of the state and
// joins the results.
func execArmsJoined(arms []*verilog.EStmt, nl *verilog.Netlist, env aenv, nb *nbState) {
	base, baseNB := env.clone(), nb.clone()
	first := true
	for _, arm := range arms {
		if first {
			execStmt(arm, nl, env, nb)
			first = false
			continue
		}
		env2, nb2 := base.clone(), baseNB.clone()
		execStmt(arm, nl, env2, nb2)
		joinState(env, nb, env2, nb2)
	}
}
