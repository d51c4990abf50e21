package verilog

// Cone-of-influence reduction. A property's verdict depends only on the
// nets it reads (its support set) and, transitively, on whatever drives
// them. ConeFor cuts a design down to that transitive fan-in: the
// projected netlist keeps exactly the support nets, every net reachable
// from them backwards through assignments and processes, and all clocks.
// Everything else — registers, inputs and logic the property can never
// observe — is dropped, which shrinks both the packed state vector the
// FPV engine deduplicates on and the input space it enumerates.
//
// Soundness: a driver unit (continuous assignment or always block) is
// kept iff it writes a kept net, and keeping a unit keeps every net it
// reads *and* every net it writes, so the closure is exactly the logic
// that can influence a support net. Given equal values on the cone's
// inputs, the reduced and full designs compute identical trajectories
// for every kept net (the dropped logic has, by construction, no path
// into the cone), so any monitor verdict over the support nets agrees.
// dverify oracle 6 cross-checks this over the fuzz genome.

// Cone is a design projected onto the fan-in of a support set. Cones are
// interned per netlist: two support sets with the same closure share one
// canonical *Cone, so the batched verifier and the graph cache can group
// and key by pointer identity.
type Cone struct {
	// Full is the netlist the cone was cut from.
	Full *Netlist
	// Reduced is the projected netlist. For the identity cone it is Full
	// itself.
	Reduced *Netlist
	// Identity marks a cone that kept every net (or a cyclic design,
	// which is never projected): Reduced == Full and Map/Inv are the
	// identity permutation.
	Identity bool
	// Map maps full net indices to reduced indices (-1 for cut nets).
	Map []int
	// Inv maps reduced net indices back to full indices.
	Inv []int
}

// coneSig renders a kept-net bitmask as a map key.
func coneSig(kept []bool) string {
	b := make([]byte, (len(kept)+7)/8)
	for i, k := range kept {
		if k {
			b[i>>3] |= 1 << uint(i&7)
		}
	}
	return string(b)
}

// ConeFor returns the interned cone of influence of the given support
// nets (indices into nl.Nets). The result is canonical: equal closures
// yield the same pointer, and a closure covering every net — or any
// support on a cyclic design, which the pass refuses to slice — yields
// the identity cone. Safe for concurrent use.
func (nl *Netlist) ConeFor(support []int) *Cone {
	key := supportKey(support)
	nl.coneMu.Lock()
	defer nl.coneMu.Unlock()
	if c, ok := nl.coneByKey[key]; ok {
		return c
	}
	c := nl.buildCone(support)
	if nl.coneByKey == nil {
		nl.coneByKey = make(map[string]*Cone)
	}
	nl.coneByKey[key] = c
	return c
}

func supportKey(support []int) string {
	b := make([]byte, 0, 4*len(support))
	for _, n := range support {
		b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return string(b)
}

// buildCone computes the closure and projects, reusing a previously
// built cone when the closure signature matches. Caller holds coneMu.
func (nl *Netlist) buildCone(support []int) *Cone {
	// A cyclic comb graph has no CombOrder to filter, and fixpoint
	// settling over a subgraph need not converge the same way; never
	// slice those designs.
	if len(nl.CombOrder) != len(nl.Assigns)+len(nl.Combs) {
		return nl.identityCone()
	}
	kept := nl.coneClosure(support)
	all := true
	for _, k := range kept {
		if !k {
			all = false
			break
		}
	}
	if all {
		return nl.identityCone()
	}
	sig := coneSig(kept)
	if c, ok := nl.coneBySig[sig]; ok {
		return c
	}
	c := nl.projectCone(kept)
	if nl.coneBySig == nil {
		nl.coneBySig = make(map[string]*Cone)
	}
	nl.coneBySig[sig] = c
	return c
}

func (nl *Netlist) identityCone() *Cone {
	if nl.idCone == nil {
		ident := make([]int, len(nl.Nets))
		for i := range ident {
			ident[i] = i
		}
		nl.idCone = &Cone{Full: nl, Reduced: nl, Identity: true, Map: ident, Inv: ident}
	}
	return nl.idCone
}

// coneClosure marks every net in the transitive fan-in of the support
// set. Driver granularity is the whole unit: keeping any net written by
// an assignment or process keeps all of that unit's reads and writes
// (its body is copied wholesale into the projection). Clocks are always
// kept — they carry no state bits but trigger every kept sequential
// process.
func (nl *Netlist) coneClosure(support []int) []bool {
	kept := make([]bool, len(nl.Nets))
	var queue []int
	add := func(n int) {
		if n >= 0 && n < len(kept) && !kept[n] {
			kept[n] = true
			queue = append(queue, n)
		}
	}
	for _, n := range support {
		add(n)
	}
	for _, n := range nl.Clocks {
		add(n)
	}

	units, writers := nl.driverUnits()

	done := make([]bool, len(units))
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range writers[n] {
			if done[u] {
				continue
			}
			done[u] = true
			for _, r := range units[u].reads {
				add(r)
			}
			for _, w := range units[u].writes {
				add(w)
			}
		}
	}
	return kept
}

// driverUnit is one driver of nets: a continuous assignment or an
// always block, with the nets it reads and writes.
type driverUnit struct {
	reads  []int
	writes []int
}

// driverUnits builds the cone closure's unit table: units are indexed
// assigns first (0..len(Assigns)-1), then combs, then seqs, and
// writers[n] lists the units writing net n.
func (nl *Netlist) driverUnits() ([]driverUnit, [][]int) {
	units := make([]driverUnit, 0, len(nl.Assigns)+len(nl.Combs)+len(nl.Seqs))
	writers := make([][]int, len(nl.Nets))
	addUnit := func(reads, writes []int) {
		u := len(units)
		units = append(units, driverUnit{reads: reads, writes: writes})
		for _, w := range writes {
			writers[w] = append(writers[w], u)
		}
	}
	for i := range nl.Assigns {
		a := &nl.Assigns[i]
		rm := make(map[int]bool)
		a.RHS.Support(rm)
		var writes []int
		for _, l := range a.LHS {
			writes = append(writes, l.Net)
			if l.BitIdx != nil {
				l.BitIdx.Support(rm)
			}
		}
		addUnit(mapKeys(rm), writes)
	}
	for _, p := range nl.Combs {
		addUnit(p.Reads, p.Writes)
	}
	for _, p := range nl.Seqs {
		addUnit(p.Reads, p.Writes)
	}
	return units, writers
}

// mapKeys returns the keys in arbitrary order; consumers (the cone
// closure, a set-valued fixpoint) are order-insensitive.
func mapKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m { //ab:allow maprange
		out = append(out, k)
	}
	return out
}

// projectCone builds the reduced netlist over the kept nets. Kept nets
// preserve their relative order, so the reduced input layout is a
// subsequence of the full one and Map is monotone.
func (nl *Netlist) projectCone(kept []bool) *Cone {
	c := &Cone{Full: nl, Map: make([]int, len(nl.Nets))}
	red := &Netlist{Name: nl.Name, byName: make(map[string]int)}
	for i, k := range kept {
		if !k {
			c.Map[i] = -1
			continue
		}
		old := nl.Nets[i]
		n := *old
		n.Index = len(red.Nets)
		c.Map[i] = n.Index
		c.Inv = append(c.Inv, i)
		red.byName[n.Name] = n.Index
		red.Nets = append(red.Nets, &n)
	}
	remapNets := func(src []int) []int {
		var out []int
		for _, n := range src {
			if c.Map[n] >= 0 {
				out = append(out, c.Map[n])
			}
		}
		return out
	}
	red.Inputs = remapNets(nl.Inputs)
	red.Clocks = remapNets(nl.Clocks)
	red.Outputs = remapNets(nl.Outputs)
	red.Regs = remapNets(nl.Regs)

	// A driver unit survives iff it writes a kept net; the closure
	// guarantees everything a surviving unit touches is kept.
	assignMap := make([]int, len(nl.Assigns))
	for i := range nl.Assigns {
		assignMap[i] = -1
		a := &nl.Assigns[i]
		if !kept[a.LHS[0].Net] {
			continue
		}
		assignMap[i] = len(red.Assigns)
		red.Assigns = append(red.Assigns, CompiledAssign{
			LHS:  remapLRefs(a.LHS, c.Map),
			RHS:  remapExpr(a.RHS, c.Map),
			Line: a.Line,
		})
	}
	combMap := make([]int, len(nl.Combs))
	for i, p := range nl.Combs {
		combMap[i] = -1
		if len(p.Writes) == 0 || !kept[p.Writes[0]] {
			continue
		}
		combMap[i] = len(red.Combs)
		red.Combs = append(red.Combs, remapProcess(p, c.Map))
	}
	for _, p := range nl.Seqs {
		if len(p.Writes) == 0 || !kept[p.Writes[0]] {
			continue
		}
		red.Seqs = append(red.Seqs, remapProcess(p, c.Map))
	}
	// A subsequence of a topological order is a topological order over
	// the surviving units.
	for _, u := range nl.CombOrder {
		if u < len(nl.Assigns) {
			if assignMap[u] >= 0 {
				red.CombOrder = append(red.CombOrder, assignMap[u])
			}
		} else if ci := combMap[u-len(nl.Assigns)]; ci >= 0 {
			red.CombOrder = append(red.CombOrder, len(red.Assigns)+ci)
		}
	}
	c.Reduced = red
	return c
}

func remapProcess(p *Process, m []int) *Process {
	reads := make([]int, len(p.Reads))
	for i, n := range p.Reads {
		reads[i] = m[n]
	}
	writes := make([]int, len(p.Writes))
	for i, n := range p.Writes {
		writes[i] = m[n]
	}
	return &Process{Seq: p.Seq, Body: remapStmt(p.Body, m), Writes: writes, Reads: reads, Line: p.Line}
}

func remapStmt(s *EStmt, m []int) *EStmt {
	if s == nil {
		return nil
	}
	out := *s
	out.LHS = remapLRefs(s.LHS, m)
	out.RHS = remapExpr(s.RHS, m)
	out.Cond = remapExpr(s.Cond, m)
	out.Then = remapStmt(s.Then, m)
	out.Else = remapStmt(s.Else, m)
	out.Subject = remapExpr(s.Subject, m)
	if s.Arms != nil {
		out.Arms = make([]*EStmt, len(s.Arms))
		for i, a := range s.Arms {
			out.Arms[i] = remapStmt(a, m)
		}
	}
	out.Default = remapStmt(s.Default, m)
	if s.Stmts != nil {
		out.Stmts = make([]*EStmt, len(s.Stmts))
		for i, st := range s.Stmts {
			out.Stmts[i] = remapStmt(st, m)
		}
	}
	// Labels and labelMap hold constants and arm indices only; aliasing
	// the originals is safe.
	return &out
}

func remapLRefs(ls []LRef, m []int) []LRef {
	if ls == nil {
		return nil
	}
	out := make([]LRef, len(ls))
	for i, l := range ls {
		out[i] = l
		out[i].Net = m[l.Net]
		out[i].BitIdx = remapExpr(l.BitIdx, m)
	}
	return out
}

func remapExpr(e *EExpr, m []int) *EExpr {
	if e == nil {
		return nil
	}
	out := *e
	switch e.Op {
	case OpNet, OpPart:
		out.Net = m[e.Net]
	case OpIndex:
		out.Net = m[e.Net]
		out.A = remapExpr(e.A, m)
	case OpConcat:
		out.Parts = make([]*EExpr, len(e.Parts))
		for i, p := range e.Parts {
			out.Parts[i] = remapExpr(p, m)
		}
	default:
		out.A = remapExpr(e.A, m)
		out.B = remapExpr(e.B, m)
		out.C = remapExpr(e.C, m)
	}
	return &out
}
