package mine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refRow and refGrow are the row-copying ID3 learner the bitset learner
// replaced, kept as the reference it must agree with.
type refRow struct {
	features []bool
	label    bool
}

func refGrow(rows []refRow, features []int, depth, minLeaf int) *dtNode {
	pos := 0
	for _, r := range rows {
		if r.label {
			pos++
		}
	}
	node := &dtNode{feature: -1, leaf: true, n: len(rows), label: pos*2 >= len(rows)}
	node.pure = pos == 0 || pos == len(rows)
	if node.pure || depth == 0 || len(rows) < minLeaf*2 || len(features) == 0 {
		return node
	}
	baseH := entropy(pos, len(rows))
	bestGain := 0.0
	bestF := -1
	for _, f := range features {
		tPos, tN, fPos, fN := 0, 0, 0, 0
		for _, r := range rows {
			if r.features[f] {
				tN++
				if r.label {
					tPos++
				}
			} else {
				fN++
				if r.label {
					fPos++
				}
			}
		}
		if tN < minLeaf || fN < minLeaf {
			continue
		}
		gain := baseH -
			(float64(tN)/float64(len(rows)))*entropy(tPos, tN) -
			(float64(fN)/float64(len(rows)))*entropy(fPos, fN)
		if gain > bestGain+1e-12 {
			bestGain = gain
			bestF = f
		}
	}
	if bestF < 0 {
		return node
	}
	var tRows, fRows []refRow
	for _, r := range rows {
		if r.features[bestF] {
			tRows = append(tRows, r)
		} else {
			fRows = append(fRows, r)
		}
	}
	rest := make([]int, 0, len(features)-1)
	for _, f := range features {
		if f != bestF {
			rest = append(rest, f)
		}
	}
	node.leaf = false
	node.feature = bestF
	node.pos = refGrow(tRows, rest, depth-1, minLeaf)
	node.neg = refGrow(fRows, rest, depth-1, minLeaf)
	return node
}

// TestLearnTreeMatchesReference feeds seeded random feature and label
// matrices to both learners: the trees and the extracted rules must be
// equal, across row counts on and off word boundaries, depths 0-4 and
// several minimum leaf sizes.
func TestLearnTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	deep := 0
	for _, nRows := range []int{0, 1, 5, 63, 64, 65, 127, 200, 511} {
		for _, nFeats := range []int{0, 1, 3, 8} {
			for depth := 0; depth <= 4; depth++ {
				for _, minLeaf := range []int{1, 2, 4, 9} {
					for trial := 0; trial < 3; trial++ {
						name := fmt.Sprintf("rows=%d feats=%d depth=%d minLeaf=%d trial=%d", nRows, nFeats, depth, minLeaf, trial)
						if treeDepth(checkLearner(t, rng, name, nRows, nFeats, depth, minLeaf)) >= 3 {
							deep++
						}
					}
				}
			}
		}
	}
	// The sweep must exercise real splits, not only leaves.
	if deep < 50 {
		t.Fatalf("only %d trees of depth >= 3", deep)
	}
}

func treeDepth(n *dtNode) int {
	if n.leaf {
		return 0
	}
	return 1 + max(treeDepth(n.pos), treeDepth(n.neg))
}

func checkLearner(t *testing.T, rng *rand.Rand, name string, nRows, nFeats, depth, minLeaf int) *dtNode {
	t.Helper()
	// Skewed densities and a label that depends on the features often
	// enough give pure leaves and deep splits, not just noise.
	density := make([]float64, nFeats)
	for f := range density {
		density[f] = rng.Float64()
	}
	rows := make([]refRow, nRows)
	feats := make([]bitset, nFeats)
	for f := range feats {
		feats[f] = newBitset(nRows)
	}
	label := newBitset(nRows)
	for c := range rows {
		rows[c].features = make([]bool, nFeats)
		for f := range feats {
			if rng.Float64() < density[f] {
				rows[c].features[f] = true
				feats[f].set(c)
			}
		}
		l := rng.Intn(8) == 0
		if nFeats > 1 {
			l = l != (rows[c].features[0] && !rows[c].features[1])
		}
		if l {
			rows[c].label = true
			label.set(c)
		}
	}
	// Bits past the last row must not matter.
	if r := nRows & 63; r != 0 {
		for _, b := range append(feats, label) {
			b[len(b)-1] |= ^uint64(0) << r
		}
	}
	want := refGrow(rows, allIdx(nFeats), depth, minLeaf)
	got := learnTree(feats, label, nRows, depth, minLeaf)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: tree differs from the reference", name)
	}
	for _, minSupport := range []int{1, minLeaf, 4} {
		if g, w := extractRules(got, minSupport), extractRules(want, minSupport); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s minSupport=%d: rules %v, want %v", name, minSupport, g, w)
		}
	}
	return got
}
