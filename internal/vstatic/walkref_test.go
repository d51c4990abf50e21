package vstatic

import (
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// The reference walk: the fixpoint and the refined classification as they
// ran before the walker owned its scratch, cloning the whole environment
// and pending-write state for every forked branch and every window row.
// The walk-equivalence tests require the walker to agree with it.

func (env aenv) clone() aenv {
	out := make(aenv, len(env))
	copy(out, env)
	return out
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

// ReferenceAnalyze is Analyze over the reference walk.
func ReferenceAnalyze(nl *verilog.Netlist) *Analysis {
	a := &Analysis{nl: nl}
	n := len(nl.Nets)
	if len(nl.CombOrder) != len(nl.Assigns)+len(nl.Combs) {
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
	for limit := 64*n + 1; ; limit-- {
		t := s.clone()
		driveTop(t, nl)
		refSettle(t, nl)
		u := t.clone()
		refStep(u, nl)
		refSettle(u, nl)
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
	refSettle(sample, nl)
	a.Env = sample
	return a
}

// ReferenceClassify is Classify with the refined pass on the reference
// walk.
func (a *Analysis) ReferenceClassify(c *sva.Compiled) PropClass {
	p, anteAllTrue, decided := a.classifyQuick(c)
	if decided {
		return p
	}
	return a.refClassifyRefined(c, anteAllTrue)
}

func (a *Analysis) refClassifyRefined(c *sva.Compiled, anteTaut bool) PropClass {
	as := c.Assertion
	window := c.Window
	if window <= 0 || window > maxRefineWindow || len(as.Cons) == 0 {
		return PropUnknown
	}
	envs := make([]aenv, 0, window)
	consTruth := make([]tri, len(as.Cons))
	var rangedTruths []tri
	for t := 0; t < window; t++ {
		var env aenv
		if t == 0 {
			env = aenv(a.Env).clone()
		} else {
			env = envs[t-1].clone()
			refStep(env, a.nl)
			driveTop(env, a.nl)
			refSettle(env, a.nl)
			meetInvariant(env, a.Env)
		}
		envs = append(envs, env)
		pe := a.walkEnv(envs, t)
		if !a.refAssumeAnte(pe, env, c, t) {
			return PropVacuous
		}
		for _, i := range c.AtAge[t].Cons {
			consTruth[i] = pe.truthOf(as.Cons[i].Expr)
		}
		if c.Ranged && t >= c.ConsLoAge && t <= c.ConsHiAge {
			rangedTruths = append(rangedTruths, pe.truthOf(as.Cons[0].Expr))
		}
	}
	return refinedVerdict(c, consTruth, rangedTruths, anteTaut)
}

func (a *Analysis) refAssumeAnte(pe propEnv, env aenv, c *sva.Compiled, t int) bool {
	steps := c.AtAge[t].Ante
	if len(steps) == 0 {
		return true
	}
	for _, i := range steps {
		if !a.assume(pe, env, c.Assertion.Ante[i].Expr, true) {
			return false
		}
	}
	refSettle(env, a.nl)
	for _, i := range steps {
		if !a.assume(pe, env, c.Assertion.Ante[i].Expr, true) {
			return false
		}
	}
	return true
}

func refSettle(env aenv, nl *verilog.Netlist) {
	na := len(nl.Assigns)
	for _, item := range nl.CombOrder {
		if item < na {
			execAssign(&nl.Assigns[item], nl, env)
		} else {
			refExecStmt(nl.Combs[item-na].Body, nl, env, nil)
		}
	}
}

func refStep(env aenv, nl *verilog.Netlist) {
	nb := newNBState(len(nl.Nets))
	for _, p := range nl.Seqs {
		refExecStmt(p.Body, nl, env, nb)
	}
	nb.commit(env, nl)
}

func refExecStmt(s *verilog.EStmt, nl *verilog.Netlist, env aenv, nb *nbState) {
	if s == nil {
		return
	}
	switch s.Op {
	case verilog.SBlock:
		for _, sub := range s.Stmts {
			refExecStmt(sub, nl, env, nb)
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
			refExecStmt(s.Then, nl, env, nb)
		case triFalse:
			refExecStmt(s.Else, nl, env, nb)
		default:
			env2, nb2 := env.clone(), nb.clone()
			refExecStmt(s.Then, nl, env, nb)
			refExecStmt(s.Else, nl, env2, nb2)
			joinState(env, nb, env2, nb2)
		}

	case verilog.SCase:
		subj := evalExpr(s.Subject, env)
		if subj.IsConst() {
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
				refExecStmt(s.Default, nl, env, nb)
			case 1:
				refExecStmt(matched[0], nl, env, nb)
			default:
				refExecArmsJoined(matched, nl, env, nb)
			}
			return
		}
		arms := make([]*verilog.EStmt, 0, len(s.Arms)+1)
		arms = append(arms, s.Arms...)
		arms = append(arms, s.Default)
		refExecArmsJoined(arms, nl, env, nb)
	}
}

func refExecArmsJoined(arms []*verilog.EStmt, nl *verilog.Netlist, env aenv, nb *nbState) {
	base, baseNB := env.clone(), nb.clone()
	first := true
	for _, arm := range arms {
		if first {
			refExecStmt(arm, nl, env, nb)
			first = false
			continue
		}
		env2, nb2 := base.clone(), baseNB.clone()
		refExecStmt(arm, nl, env2, nb2)
		joinState(env, nb, env2, nb2)
	}
}
