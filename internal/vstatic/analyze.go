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
	w := &walker{nl: nl}
	s, t, u := make(aenv, n), make(aenv, n), make(aenv, n)
	for i := range s {
		s[i] = Const(0)
	}
	// Each productive iteration clears at least one Known bit, so 64*n+1
	// iterations always suffice; the widening fallback is a safety net.
	for limit := 64*n + 1; ; limit-- {
		copy(t, s)
		driveTop(t, nl)
		w.settle(t)
		copy(u, t)
		w.step(u)
		w.settle(u)
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
	copy(t, s)
	driveTop(t, nl)
	w.settle(t)
	a.Env = t
	return a
}

// ConstOf returns the net's value if it is statically constant.
func (a *Analysis) ConstOf(net int) (uint64, bool) {
	b := a.Env[net]
	return b.Val, b.IsConst()
}

// aenv is an abstract value environment indexed by net.
type aenv []Bits

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

// walker runs the abstract transfers over one netlist and owns their
// scratch, so a walk allocates once rather than per branch: a fork takes
// its environments and pending-write states from the free lists and
// returns them after the join, step reuses one pending-write state, and
// the arm lists of case statements live on one stack. A walker is not
// safe for concurrent use.
type walker struct {
	nl   *verilog.Netlist
	envs []aenv     // free environments
	nbs  []*nbState // free pending-write states
	nb   *nbState   // step's pending writes
	arms []*verilog.EStmt
}

// take pops an environment and, when withNB is set, a pending-write
// state from the free lists; their contents are stale.
func (w *walker) take(withNB bool) (aenv, *nbState) {
	var env aenv
	if k := len(w.envs); k > 0 {
		env, w.envs = w.envs[k-1], w.envs[:k-1]
	} else {
		env = make(aenv, len(w.nl.Nets))
	}
	if !withNB {
		return env, nil
	}
	var nb *nbState
	if k := len(w.nbs); k > 0 {
		nb, w.nbs = w.nbs[k-1], w.nbs[:k-1]
	} else {
		nb = newNBState(len(w.nl.Nets))
	}
	return env, nb
}

// fork returns a copy of (env, nb) from the free lists; nb nil (comb
// settle) stays nil.
func (w *walker) fork(env aenv, nb *nbState) (aenv, *nbState) {
	env2, nb2 := w.take(nb != nil)
	copy(env2, env)
	if nb != nil {
		nb2.copyFrom(nb)
	}
	return env2, nb2
}

// release returns a forked pair to the free lists.
func (w *walker) release(env aenv, nb *nbState) {
	w.envs = append(w.envs, env)
	if nb != nil {
		w.nbs = append(w.nbs, nb)
	}
}

// settle runs the abstract combinational pass in CombOrder, mirroring
// the simulator's acyclic settle. Non-blocking writes inside comb
// processes are discarded, matching the concrete machines (queued then
// dropped at the next Step).
func (w *walker) settle(env aenv) {
	na := len(w.nl.Assigns)
	for _, item := range w.nl.CombOrder {
		if item < na {
			execAssign(&w.nl.Assigns[item], w.nl, env)
		} else {
			w.execStmt(w.nl.Combs[item-na].Body, env, nil)
		}
	}
}

// step is the abstract clock edge: every sequential process runs in
// netlist order sharing one environment (blocking writes visible to
// later processes), then pending non-blocking writes commit.
func (w *walker) step(env aenv) {
	if w.nb == nil {
		w.nb = newNBState(len(w.nl.Nets))
	} else {
		clear(w.nb.kind)
		clear(w.nb.val)
	}
	for _, p := range w.nl.Seqs {
		w.execStmt(p.Body, env, w.nb)
	}
	w.nb.commit(env, w.nl)
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

func (nb *nbState) copyFrom(src *nbState) {
	copy(nb.kind, src.kind)
	copy(nb.val, src.val)
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
func (w *walker) execStmt(s *verilog.EStmt, env aenv, nb *nbState) {
	if s == nil {
		return
	}
	nl := w.nl
	switch s.Op {
	case verilog.SBlock:
		for _, sub := range s.Stmts {
			w.execStmt(sub, env, nb)
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
			lw := lrefWidth(l, nl)
			part := shrConst(v, shift).mask(lw)
			assignRef(l, nl, env, nb, part, s.Blocking)
			shift += uint64(lw)
		}

	case verilog.SIf:
		switch truth(evalExpr(s.Cond, env)) {
		case triTrue:
			w.execStmt(s.Then, env, nb)
		case triFalse:
			w.execStmt(s.Else, env, nb)
		default:
			env2, nb2 := w.fork(env, nb)
			w.execStmt(s.Then, env, nb)
			w.execStmt(s.Else, env2, nb2)
			joinState(env, nb, env2, nb2)
			w.release(env2, nb2)
		}

	case verilog.SCase:
		// The arm list goes on the walker's stack: a nested case pushes
		// above it and pops back before this one resumes.
		base := len(w.arms)
		subj := evalExpr(s.Subject, env)
		if subj.IsConst() {
			// With several labels matching the same value (overlapping
			// casez patterns, or duplicate labels where the elaborated
			// labelMap tie-break is not observable here) join the matching
			// arms so any tie-break is covered.
			for i, labels := range s.Labels {
				for _, lab := range labels {
					if lab.Matches(subj.Val) {
						w.arms = append(w.arms, s.Arms[i])
						break
					}
				}
			}
			switch matched := w.arms[base:]; len(matched) {
			case 0:
				w.execStmt(s.Default, env, nb)
			case 1:
				w.execStmt(matched[0], env, nb)
			default:
				w.execArmsJoined(matched, env, nb)
			}
		} else {
			// Unknown subject: any arm (or the default, or — with a nil
			// default — no arm at all) may run.
			w.arms = append(w.arms, s.Arms...)
			w.arms = append(w.arms, s.Default) // nil means "no statement runs"
			w.execArmsJoined(w.arms[base:], env, nb)
		}
		w.arms = w.arms[:base]
	}
}

// execArmsJoined executes each arm on a copy of the state at entry and
// joins the results into (env, nb). The first arm runs in place; every
// later arm runs on one scratch pair refilled from the saved entry state.
func (w *walker) execArmsJoined(arms []*verilog.EStmt, env aenv, nb *nbState) {
	base, baseNB := w.fork(env, nb)
	scratch, scratchNB := w.take(nb != nil)
	for i, arm := range arms {
		if i == 0 {
			w.execStmt(arm, env, nb)
			continue
		}
		copy(scratch, base)
		if nb != nil {
			scratchNB.copyFrom(baseNB)
		}
		w.execStmt(arm, scratch, scratchNB)
		joinState(env, nb, scratch, scratchNB)
	}
	w.release(scratch, scratchNB)
	w.release(base, baseNB)
}
