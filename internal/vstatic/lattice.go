// Package vstatic is a static semantic analysis layer over elaborated
// netlists: an abstract interpreter on a known-bits (ternary 0/1/X)
// lattice, run to a fixpoint across the design's combinational and
// sequential units. Its abstraction covers every value environment the
// concrete simulator can be in at a sample point, which makes two
// consumers sound by construction:
//
//   - static pre-verification (internal/fpv): properties whose
//     antecedent is statically false (vacuous), whose consequent is
//     statically true (proven), or whose consequent is statically
//     refuted with a concrete witness prefix are discharged without a
//     state-space search (dverify oracle 8 cross-checks the verdicts);
//   - assertion lint (cmd/ablint, assertionbench.Lint): structured
//     diagnostics for trivially-true, contradictory, width-truncating
//     and constant-net assertions.
//
// The domain is non-relational: one Bits value per net, no
// correlations. That keeps the fixpoint linear in design size and —
// because the concretization of an environment is a per-net product —
// automatically covers the FPV engine's state-jumping exploration
// (LoadState mixes register values and stale combinational values from
// different explored states; any mix of covered values is covered).
package vstatic

import (
	"math/bits"

	"assertionbench/internal/verilog"
)

// Bits is a known-bits abstract value: bit i of a concrete value is
// Val>>i&1 whenever Known>>i&1 is set, and unconstrained otherwise.
// Invariant: Val &^ Known == 0. Values mirror the simulator's masking
// convention — bits at and above a net's width are known zero.
type Bits struct {
	Known uint64
	Val   uint64
}

// Top returns the unconstrained value of width w (high bits known zero,
// matching the concrete masking invariant).
func Top(w int) Bits { return Bits{Known: ^verilog.WidthMask(w)} }

// Const returns the fully known value v.
func Const(v uint64) Bits { return Bits{Known: ^uint64(0), Val: v} }

// IsConst reports whether every bit is known.
func (b Bits) IsConst() bool { return b.Known == ^uint64(0) }

// Min is the smallest concrete value the abstraction admits.
func (b Bits) Min() uint64 { return b.Val }

// Max is the largest concrete value the abstraction admits.
func (b Bits) Max() uint64 { return b.Val | ^b.Known }

// Contains reports whether concrete value v is admitted.
func (b Bits) Contains(v uint64) bool { return v&b.Known == b.Val }

// Join is the lattice join: bits stay known only where both sides know
// the same value.
func Join(a, b Bits) Bits {
	known := a.Known & b.Known &^ (a.Val ^ b.Val)
	return Bits{Known: known, Val: a.Val & known}
}

// mask narrows the value to width w: bits at and above w become known
// zero, mirroring `x & WidthMask(w)` on concrete values.
func (b Bits) mask(w int) Bits {
	m := verilog.WidthMask(w)
	return Bits{Known: b.Known | ^m, Val: b.Val & m}
}

// tri is a ternary truth value.
type tri int

const (
	triUnknown tri = iota
	triFalse
	triTrue
)

// truth is the abstract counterpart of `x != 0`: definitely true when
// some bit is known one, definitely false when every bit is known zero.
func truth(b Bits) tri {
	if b.Val != 0 {
		return triTrue
	}
	if b.Known == ^uint64(0) {
		return triFalse
	}
	return triUnknown
}

func (t tri) not() tri {
	switch t {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triUnknown
}

// triBit renders a truth value as a 1-bit Bits.
func triBit(t tri) Bits {
	switch t {
	case triTrue:
		return Const(1)
	case triFalse:
		return Const(0)
	}
	return Top(1)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func parity(v uint64) uint64 { return uint64(bits.OnesCount64(v) & 1) }

// ipow mirrors verilog's ** evaluation (wrapping integer power).
func ipow(base, exp uint64) uint64 {
	var r uint64 = 1
	for exp > 0 {
		if exp&1 == 1 {
			r *= base
		}
		base *= base
		exp >>= 1
	}
	return r
}

// addSub is the abstract + / - transfer: the low run of bits known on
// both sides determines the same low run of the result (carries out of
// the run depend only on bits inside it); everything above is unknown.
func addSub(a, b Bits, w int, add bool) Bits {
	var s uint64
	if add {
		s = a.Val + b.Val
	} else {
		s = a.Val - b.Val
	}
	n := bits.TrailingZeros64(^(a.Known & b.Known))
	if n >= 64 {
		return Const(s).mask(w)
	}
	m := verilog.WidthMask(n)
	return Bits{Known: m, Val: s & m}.mask(w)
}

// shrConst shifts right by a known amount; vacated high bits are known
// zero. No width mask, mirroring EExpr OpShr.
func shrConst(b Bits, s uint64) Bits {
	if s == 0 {
		return b
	}
	if s >= 64 {
		return Const(0)
	}
	hi := ^uint64(0) << (64 - s)
	return Bits{Known: (b.Known >> s) | hi, Val: b.Val >> s}
}

// insertPart overwrites bits [lo, lo+w) of old with the low w bits of v
// (the abstract LRef part/bit assignment).
func insertPart(old, v Bits, lo, w int) Bits {
	lm := verilog.WidthMask(w)
	m := lm << uint(lo)
	return Bits{
		Known: (old.Known &^ m) | ((v.Known & lm) << uint(lo)),
		Val:   (old.Val &^ m) | ((v.Val & lm) << uint(lo)),
	}
}

// blendBit is the abstract dynamically indexed single-bit write: any one
// bit below the net width may become v's low bit, or the write may miss
// entirely (out-of-range index), so each low bit joins with the written
// bit and high bits keep their old value.
func blendBit(old, v Bits, netW int) Bits {
	var bk, bv uint64 // v's low bit broadcast to all 64 positions
	if v.Known&1 != 0 {
		bk = ^uint64(0)
		if v.Val&1 != 0 {
			bv = ^uint64(0)
		}
	}
	known := old.Known & bk &^ (old.Val ^ bv)
	val := old.Val & known
	m := verilog.WidthMask(netW)
	return Bits{
		Known: (known & m) | (old.Known &^ m),
		Val:   (val & m) | (old.Val &^ m),
	}
}

// evalExpr is the abstract transfer of EExpr.Eval: each arm mirrors the
// concrete evaluation exactly (same masking, same width rules, same
// division-by-zero and shift-overflow conventions), weakened only where
// precision is given up (non-constant multiplies, shifts by unknown
// amounts, dynamic indices).
func evalExpr(e *verilog.EExpr, env []Bits) Bits {
	switch e.Op {
	case verilog.OpConst:
		return Const(e.Val)
	case verilog.OpNet:
		return env[e.Net]
	case verilog.OpIndex:
		idx := evalExpr(e.A, env)
		if !idx.IsConst() {
			return Top(1)
		}
		if idx.Val >= 64 {
			return Const(0)
		}
		n := env[e.Net]
		return Bits{Known: ((n.Known >> idx.Val) & 1) | ^uint64(1), Val: (n.Val >> idx.Val) & 1}
	case verilog.OpPart:
		n := env[e.Net]
		return Bits{Known: n.Known >> uint(e.Lo), Val: n.Val >> uint(e.Lo)}.mask(e.W)
	case verilog.OpNot:
		a := evalExpr(e.A, env)
		return Bits{Known: a.Known, Val: ^a.Val & a.Known}.mask(e.W)
	case verilog.OpLogNot:
		return triBit(truth(evalExpr(e.A, env)).not())
	case verilog.OpNeg:
		a := evalExpr(e.A, env)
		if a.IsConst() {
			return Const(-a.Val).mask(e.W)
		}
		return Top(e.W)
	case verilog.OpRedAnd:
		return redAnd(evalExpr(e.A, env), e.A.W)
	case verilog.OpRedNand:
		b := redAnd(evalExpr(e.A, env), e.A.W)
		return Bits{Known: b.Known, Val: ^b.Val & b.Known}.mask(1)
	case verilog.OpRedOr:
		return triBit(truth(evalExpr(e.A, env)))
	case verilog.OpRedNor:
		return triBit(truth(evalExpr(e.A, env)).not())
	case verilog.OpRedXor:
		a := evalExpr(e.A, env)
		if a.IsConst() {
			return Const(parity(a.Val))
		}
		return Top(1)
	case verilog.OpRedXnor:
		a := evalExpr(e.A, env)
		if a.IsConst() {
			return Const(parity(a.Val) ^ 1)
		}
		return Top(1)
	case verilog.OpAdd:
		return addSub(evalExpr(e.A, env), evalExpr(e.B, env), e.W, true)
	case verilog.OpSub:
		return addSub(evalExpr(e.A, env), evalExpr(e.B, env), e.W, false)
	case verilog.OpMul:
		a, b := evalExpr(e.A, env), evalExpr(e.B, env)
		if a.IsConst() && b.IsConst() {
			return Const(a.Val * b.Val).mask(e.W)
		}
		if (a.IsConst() && a.Val == 0) || (b.IsConst() && b.Val == 0) {
			return Const(0)
		}
		return Top(e.W)
	case verilog.OpDiv:
		b := evalExpr(e.B, env)
		if b.IsConst() {
			if b.Val == 0 {
				return Const(0)
			}
			if a := evalExpr(e.A, env); a.IsConst() {
				return Const(a.Val / b.Val).mask(e.W)
			}
		}
		return Top(e.W)
	case verilog.OpMod:
		b := evalExpr(e.B, env)
		if b.IsConst() {
			if b.Val == 0 {
				return Const(0)
			}
			if a := evalExpr(e.A, env); a.IsConst() {
				return Const(a.Val % b.Val).mask(e.W)
			}
		}
		return Top(e.W)
	case verilog.OpPow:
		a, b := evalExpr(e.A, env), evalExpr(e.B, env)
		if a.IsConst() && b.IsConst() {
			return Const(ipow(a.Val, b.Val)).mask(e.W)
		}
		return Top(e.W)
	case verilog.OpAnd:
		a, b := evalExpr(e.A, env), evalExpr(e.B, env)
		return Bits{
			Known: (a.Known & b.Known) | (a.Known &^ a.Val) | (b.Known &^ b.Val),
			Val:   a.Val & b.Val,
		}
	case verilog.OpOr:
		a, b := evalExpr(e.A, env), evalExpr(e.B, env)
		return Bits{Known: (a.Known & b.Known) | a.Val | b.Val, Val: a.Val | b.Val}
	case verilog.OpXor:
		a, b := evalExpr(e.A, env), evalExpr(e.B, env)
		k := a.Known & b.Known
		return Bits{Known: k, Val: (a.Val ^ b.Val) & k}
	case verilog.OpXnor:
		a, b := evalExpr(e.A, env), evalExpr(e.B, env)
		k := a.Known & b.Known
		return Bits{Known: k, Val: ^(a.Val ^ b.Val) & k}.mask(e.W)
	case verilog.OpLogAnd:
		ta, tb := truth(evalExpr(e.A, env)), truth(evalExpr(e.B, env))
		switch {
		case ta == triFalse || tb == triFalse:
			return Const(0)
		case ta == triTrue && tb == triTrue:
			return Const(1)
		}
		return Top(1)
	case verilog.OpLogOr:
		ta, tb := truth(evalExpr(e.A, env)), truth(evalExpr(e.B, env))
		switch {
		case ta == triTrue || tb == triTrue:
			return Const(1)
		case ta == triFalse && tb == triFalse:
			return Const(0)
		}
		return Top(1)
	case verilog.OpEq:
		return triBit(eqTruth(evalExpr(e.A, env), evalExpr(e.B, env)))
	case verilog.OpNe:
		return triBit(eqTruth(evalExpr(e.A, env), evalExpr(e.B, env)).not())
	case verilog.OpLt:
		return triBit(cmpTruth(evalExpr(e.A, env), evalExpr(e.B, env), false))
	case verilog.OpLe:
		return triBit(cmpTruth(evalExpr(e.A, env), evalExpr(e.B, env), true))
	case verilog.OpGt:
		return triBit(cmpTruth(evalExpr(e.B, env), evalExpr(e.A, env), false))
	case verilog.OpGe:
		return triBit(cmpTruth(evalExpr(e.B, env), evalExpr(e.A, env), true))
	case verilog.OpShl:
		b := evalExpr(e.B, env)
		if !b.IsConst() {
			return Top(e.W)
		}
		if b.Val >= 64 {
			return Const(0)
		}
		a := evalExpr(e.A, env)
		return Bits{
			Known: (a.Known << b.Val) | verilog.WidthMask(int(b.Val)),
			Val:   a.Val << b.Val,
		}.mask(e.W)
	case verilog.OpShr:
		b := evalExpr(e.B, env)
		if !b.IsConst() {
			// The result is bounded by A's width even without masking.
			return Top(e.A.W)
		}
		if b.Val >= 64 {
			return Const(0)
		}
		return shrConst(evalExpr(e.A, env), b.Val)
	case verilog.OpTernary:
		switch truth(evalExpr(e.A, env)) {
		case triTrue:
			return evalExpr(e.B, env)
		case triFalse:
			return evalExpr(e.C, env)
		}
		return Join(evalExpr(e.B, env), evalExpr(e.C, env))
	case verilog.OpConcat:
		acc := Const(0)
		for _, part := range e.Parts {
			pb := evalExpr(part, env)
			m := verilog.WidthMask(part.W)
			acc = Bits{
				Known: (acc.Known << uint(part.W)) | (pb.Known & m),
				Val:   (acc.Val << uint(part.W)) | (pb.Val & m),
			}
		}
		return acc.mask(e.W)
	}
	// Unknown op (future extension): fully unconstrained is always sound.
	return Bits{}
}

// redAnd is the abstract &-reduction over width w.
func redAnd(a Bits, w int) Bits {
	m := verilog.WidthMask(w)
	switch {
	case a.Val&m == m:
		return Const(1)
	case ^a.Val&a.Known&m != 0:
		return Const(0)
	}
	return Top(1)
}

// eqTruth is the abstract `a == b` over raw 64-bit values.
func eqTruth(a, b Bits) tri {
	if a.IsConst() && b.IsConst() {
		if a.Val == b.Val {
			return triTrue
		}
		return triFalse
	}
	if (a.Val^b.Val)&a.Known&b.Known != 0 {
		return triFalse
	}
	if a.Max() < b.Min() || b.Max() < a.Min() {
		return triFalse
	}
	return triUnknown
}

// cmpTruth is the abstract `a < b` (orEq: `a <= b`) over raw values.
func cmpTruth(a, b Bits, orEq bool) tri {
	if orEq {
		if a.Max() <= b.Min() {
			return triTrue
		}
		if a.Min() > b.Max() {
			return triFalse
		}
		return triUnknown
	}
	if a.Max() < b.Min() {
		return triTrue
	}
	if a.Min() >= b.Max() {
		return triFalse
	}
	return triUnknown
}
