package mine

import (
	"math"
	"math/bits"
)

// The decision-tree learner behind the GOLDMINE-style miner: ID3 with
// information gain over boolean atom features, depth-capped, extracting
// only pure leaves with sufficient support as candidate rules. Features,
// the label and each node's rows are bitsets over the trace rows, so a
// split's counts are popcounts of ANDs and no row is ever copied.

// bitset is a set of trace rows, one bit per row.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

// prefix returns the set of rows 0..n-1.
func prefix(n int) bitset {
	b := newBitset(n)
	for i := range b {
		b[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		b[len(b)-1] = 1<<r - 1
	}
	return b
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// andCount is |a ∩ b|.
func andCount(a, b bitset) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// and3Count is |a ∩ b ∩ c|.
func and3Count(a, b, c bitset) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i] & c[i])
	}
	return n
}

type dtNode struct {
	feature  int // index into the atom list; -1 for leaves
	pos, neg *dtNode
	leaf     bool
	label    bool
	n        int
	pure     bool
}

// dtRule is a root-to-pure-leaf path: the conjunction of (atom, polarity)
// conditions implies the label.
type dtRule struct {
	conds   []dtCond
	label   bool
	support int
}

type dtCond struct {
	feature int
	negated bool
}

func entropy(pos, n int) float64 {
	if n == 0 || pos == 0 || pos == n {
		return 0
	}
	p := float64(pos) / float64(n)
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// learnTree builds a tree over trace rows 0..rows-1: feats[f] holds the
// rows where feature f is true, and label the rows labelled true. Bits at
// or past rows are ignored.
func learnTree(feats []bitset, label bitset, rows, maxDepth, minLeaf int) *dtNode {
	t := tree{feats: feats, label: label, minLeaf: minLeaf}
	return t.grow(prefix(rows), allIdx(len(feats)), maxDepth)
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

type tree struct {
	feats   []bitset
	label   bitset
	minLeaf int
}

// grow learns the subtree over the rows in mask.
func (t *tree) grow(mask bitset, features []int, depth int) *dtNode {
	n := mask.count()
	pos := andCount(mask, t.label)
	node := &dtNode{feature: -1, leaf: true, n: n, label: pos*2 >= n}
	node.pure = pos == 0 || pos == n
	if node.pure || depth == 0 || n < t.minLeaf*2 || len(features) == 0 {
		return node
	}
	baseH := entropy(pos, n)
	bestGain := 0.0
	bestF := -1
	for _, f := range features {
		tN := andCount(mask, t.feats[f])
		tPos := and3Count(mask, t.feats[f], t.label)
		fN, fPos := n-tN, pos-tPos
		if tN < t.minLeaf || fN < t.minLeaf {
			continue
		}
		gain := baseH -
			(float64(tN)/float64(n))*entropy(tPos, tN) -
			(float64(fN)/float64(n))*entropy(fPos, fN)
		if gain > bestGain+1e-12 {
			bestGain = gain
			bestF = f
		}
	}
	if bestF < 0 {
		return node
	}
	split := make(bitset, 2*len(mask))
	tMask, fMask := split[:len(mask)], split[len(mask):]
	for i, w := range mask {
		tMask[i] = w & t.feats[bestF][i]
		fMask[i] = w &^ t.feats[bestF][i]
	}
	rest := make([]int, 0, len(features)-1)
	for _, f := range features {
		if f != bestF {
			rest = append(rest, f)
		}
	}
	node.leaf = false
	node.feature = bestF
	node.pos = t.grow(tMask, rest, depth-1)
	node.neg = t.grow(fMask, rest, depth-1)
	return node
}

// extractRules walks the tree collecting pure leaves with enough support.
func extractRules(root *dtNode, minSupport int) []dtRule {
	var out []dtRule
	var walk func(n *dtNode, conds []dtCond)
	walk = func(n *dtNode, conds []dtCond) {
		if n == nil {
			return
		}
		if n.leaf {
			if n.pure && n.n >= minSupport && len(conds) > 0 {
				rule := dtRule{label: n.label, support: n.n}
				rule.conds = append(rule.conds, conds...)
				out = append(out, rule)
			}
			return
		}
		walk(n.pos, append(conds, dtCond{feature: n.feature}))
		walk(n.neg, append(conds, dtCond{feature: n.feature, negated: true}))
	}
	walk(root, nil)
	return out
}
