package llm

import (
	"maps"
	"math"
	"math/rand"
	"sort"
)

// NGram is an order-3 language model with interpolated backoff and add-k
// smoothing. It is deliberately small — the point is that decoding,
// scoring, perplexity, and fine-tuning are real statistical procedures,
// not canned outputs.
type NGram struct {
	vocab *Vocab

	uni    map[int]int
	bi     map[[2]int]map[int]int
	tri    map[[3]int]map[int]int
	biTot  map[[2]int]int
	triTot map[[3]int]int
	total  int

	// Interpolation weights for trigram/bigram/unigram.
	L3, L2, L1 float64
	// AddK is the smoothing constant.
	AddK float64
}

// NewNGram returns an empty model sharing the given vocabulary.
func NewNGram(v *Vocab) *NGram {
	return &NGram{
		vocab:  v,
		uni:    map[int]int{},
		bi:     map[[2]int]map[int]int{},
		tri:    map[[3]int]map[int]int{},
		biTot:  map[[2]int]int{},
		triTot: map[[3]int]int{},
		L3:     0.6, L2: 0.3, L1: 0.1,
		AddK: 0.05,
	}
}

// Vocab exposes the model's vocabulary.
func (m *NGram) Vocab() *Vocab { return m.vocab }

// TrainSequence accumulates counts from one encoded sequence (BOS..EOS).
func (m *NGram) TrainSequence(seq []int) {
	for _, t := range seq {
		m.uni[t]++
		m.total++
	}
	for i := 1; i < len(seq); i++ {
		prev := seq[i-1]
		cur := seq[i]
		key2 := [2]int{prev, -1}
		if m.bi[key2] == nil {
			m.bi[key2] = map[int]int{}
		}
		m.bi[key2][cur]++
		m.biTot[key2]++
		if i >= 2 {
			key3 := [3]int{seq[i-2], prev, -1}
			if m.tri[key3] == nil {
				m.tri[key3] = map[int]int{}
			}
			m.tri[key3][cur]++
			m.triTot[key3]++
		}
	}
}

// Train tokenizes and trains on a batch of text lines.
func (m *NGram) Train(lines []string) {
	var tk Tokenizer
	for _, line := range lines {
		m.TrainSequence(m.vocab.Encode(tk.Tokenize(line)))
	}
}

// Prob returns P(tok | prev2 prev1) with interpolation and smoothing.
func (m *NGram) Prob(prev2, prev1, tok int) float64 {
	return m.prob(float64(m.vocab.Size()), m.counts(prev2, prev1, tok))
}

// ngramCounts are the counts Prob reads for one token in one context: the
// token's unigram count and the unigram total, its bigram count and the
// bigram context's total, and the same for the trigram.
type ngramCounts struct {
	uni, total, bi, biTot, tri, triTot int
}

// counts looks up the counts Prob reads for tok after (prev2, prev1).
func (m *NGram) counts(prev2, prev1, tok int) ngramCounts {
	c := ngramCounts{uni: m.uni[tok], total: m.total}
	key2 := [2]int{prev1, -1}
	if c.biTot = m.biTot[key2]; c.biTot > 0 {
		c.bi = m.bi[key2][tok]
	}
	key3 := [3]int{prev2, prev1, -1}
	if c.triTot = m.triTot[key3]; c.triTot > 0 {
		c.tri = m.tri[key3][tok]
	}
	return c
}

// plus returns c + k·d, field by field.
func (c ngramCounts) plus(k int, d ngramCounts) ngramCounts {
	return ngramCounts{
		uni: c.uni + k*d.uni, total: c.total + k*d.total,
		bi: c.bi + k*d.bi, biTot: c.biTot + k*d.biTot,
		tri: c.tri + k*d.tri, triTot: c.triTot + k*d.triTot,
	}
}

// prob is Prob's arithmetic over counts c and a vocabulary of v tokens.
func (m *NGram) prob(v float64, c ngramCounts) float64 {
	p1 := (float64(c.uni) + m.AddK) / (float64(c.total) + m.AddK*v)
	p2 := p1
	if c.biTot > 0 {
		p2 = (float64(c.bi) + m.AddK) / (float64(c.biTot) + m.AddK*v)
	}
	p3 := p2
	if c.triTot > 0 {
		p3 = (float64(c.tri) + m.AddK) / (float64(c.triTot) + m.AddK*v)
	}
	return m.L3*p3 + m.L2*p2 + m.L1*p1
}

// ScoreTokens returns the average negative log2 probability of a token
// string sequence (lower is more fluent under the model).
func (m *NGram) ScoreTokens(toks []string) float64 {
	seq := make([]int, 0, len(toks)+2)
	seq = append(seq, TokBOS)
	for _, t := range toks {
		id := m.vocab.ID(t)
		if id < 0 {
			id = m.vocab.Size() // unseen: maximally surprising under AddK
		}
		seq = append(seq, id)
	}
	seq = append(seq, TokEOS)
	nll := 0.0
	for i := 1; i < len(seq); i++ {
		prev2 := TokBOS
		if i >= 2 {
			prev2 = seq[i-2]
		}
		nll += -math.Log2(m.Prob(prev2, seq[i-1], seq[i]))
	}
	return nll / float64(len(seq)-1)
}

// Perplexity of a batch of lines under the model.
func (m *NGram) Perplexity(lines []string) float64 {
	var tk Tokenizer
	total, n := 0.0, 0
	for _, line := range lines {
		toks := tk.Tokenize(line)
		total += m.ScoreTokens(toks) * float64(len(toks)+1)
		n += len(toks) + 1
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp2(total / float64(n))
}

// epochPerplexities returns the perplexity of lines after each of epochs
// training passes whose counts are pass's: after pass e the model's counts
// are m's plus e times pass's. pass must share m's vocabulary. Each entry
// equals Perplexity on the model trained that far, bit for bit: lines are
// encoded by ScoreTokens' rule, probabilities come from prob, and sums run
// in ScoreTokens' and Perplexity's order.
func (m *NGram) epochPerplexities(pass *NGram, lines []string, epochs int) []float64 {
	type position struct{ base, step ngramCounts }
	var tk Tokenizer
	var positions []position
	var lens []int // scored positions per line: its tokens and EOS
	for _, line := range lines {
		toks := tk.Tokenize(line)
		prev2, prev1 := TokBOS, TokBOS
		for i := 0; i <= len(toks); i++ {
			tok := TokEOS
			if i < len(toks) {
				if tok = m.vocab.ID(toks[i]); tok < 0 {
					tok = m.vocab.Size()
				}
			}
			positions = append(positions, position{m.counts(prev2, prev1, tok), pass.counts(prev2, prev1, tok)})
			prev2, prev1 = prev1, tok
		}
		lens = append(lens, len(toks)+1)
	}
	v := float64(m.vocab.Size())
	out := make([]float64, epochs)
	for e := range out {
		total, n, at := 0.0, 0, 0
		for _, l := range lens {
			nll := 0.0
			for _, p := range positions[at : at+l] {
				nll += -math.Log2(m.prob(v, p.base.plus(e+1, p.step)))
			}
			at += l
			// ScoreTokens' mean, weighted back by Perplexity.
			total += nll / float64(l) * float64(l)
			n += l
		}
		out[e] = math.Inf(1)
		if n > 0 {
			out[e] = math.Exp2(total / float64(n))
		}
	}
	return out
}

// addScaled adds k times pass's counts to m's. pass must share m's
// vocabulary.
func (m *NGram) addScaled(pass *NGram, k int) {
	for t, c := range pass.uni {
		m.uni[t] += k * c
	}
	m.total += k * pass.total
	for key, d := range pass.bi {
		row := m.bi[key]
		if row == nil {
			row = map[int]int{}
			m.bi[key] = row
		}
		for t, c := range d {
			row[t] += k * c
		}
		m.biTot[key] += k * pass.biTot[key]
	}
	for key, d := range pass.tri {
		row := m.tri[key]
		if row == nil {
			row = map[int]int{}
			m.tri[key] = row
		}
		for t, c := range d {
			row[t] += k * c
		}
		m.triTot[key] += k * pass.triTot[key]
	}
}

// SampleNext draws the next token id given two tokens of context, using
// temperature scaling and nucleus (top-p) truncation. candidates may
// restrict the choice set (grammar-guided decoding); nil means the whole
// vocabulary observed in context.
func (m *NGram) SampleNext(prev2, prev1 int, candidates []int, temp, topP float64, rng *rand.Rand) int {
	if len(candidates) == 0 {
		seen := map[int]bool{}
		if d := m.tri[[3]int{prev2, prev1, -1}]; d != nil {
			for t := range d {
				seen[t] = true
			}
		}
		if d := m.bi[[2]int{prev1, -1}]; d != nil {
			for t := range d {
				seen[t] = true
			}
		}
		if len(seen) == 0 {
			for t := range m.uni {
				seen[t] = true
			}
		}
		for t := range seen {
			candidates = append(candidates, t)
		}
		sort.Ints(candidates)
	}
	if len(candidates) == 1 {
		return candidates[0]
	}
	type scored struct {
		tok int
		p   float64
	}
	// Greedy limit: pick the argmax outright (pow underflows there).
	if temp < 1e-3 {
		best, bestP := candidates[0], -1.0
		for _, t := range candidates {
			if p := m.Prob(prev2, prev1, t); p > bestP {
				best, bestP = t, p
			}
		}
		return best
	}
	items := make([]scored, 0, len(candidates))
	sum := 0.0
	for _, t := range candidates {
		p := math.Pow(m.Prob(prev2, prev1, t), 1.0/temp)
		items = append(items, scored{t, p})
		sum += p
	}
	if sum == 0 {
		return candidates[rng.Intn(len(candidates))]
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].p != items[j].p {
			return items[i].p > items[j].p
		}
		return items[i].tok < items[j].tok
	})
	// Nucleus truncation.
	if topP > 0 && topP < 1 {
		acc := 0.0
		cut := len(items)
		for i, it := range items {
			acc += it.p / sum
			if acc >= topP {
				cut = i + 1
				break
			}
		}
		items = items[:cut]
		sum = 0
		for _, it := range items {
			sum += it.p
		}
	}
	r := rng.Float64() * sum
	for _, it := range items {
		r -= it.p
		if r <= 0 {
			return it.tok
		}
	}
	return items[len(items)-1].tok
}

// SampleToken is SampleNext over token strings.
func (m *NGram) SampleToken(prev2, prev1 string, candidates []string, temp, topP float64, rng *rand.Rand) string {
	ids := make([]int, 0, len(candidates))
	for _, c := range candidates {
		ids = append(ids, m.vocab.Add(c))
	}
	p2 := m.vocab.ID(prev2)
	if p2 < 0 {
		p2 = TokBOS
	}
	p1 := m.vocab.ID(prev1)
	if p1 < 0 {
		p1 = TokBOS
	}
	return m.vocab.Token(m.SampleNext(p2, p1, ids, temp, topP, rng))
}

// Clone deep-copies the model including its vocabulary, so training or
// sampling on the copy never perturbs the original (fine-tuning and
// in-context conditioning both train clones).
func (m *NGram) Clone() *NGram {
	out := NewNGram(m.vocab.clone())
	out.L3, out.L2, out.L1, out.AddK = m.L3, m.L2, m.L1, m.AddK
	for k, v := range m.uni {
		out.uni[k] = v
	}
	out.total = m.total
	for k, d := range m.bi {
		out.bi[k] = maps.Clone(d)
	}
	for k, v := range m.biTot {
		out.biTot[k] = v
	}
	for k, d := range m.tri {
		out.tri[k] = maps.Clone(d)
	}
	for k, v := range m.triTot {
		out.triTot[k] = v
	}
	return out
}

// withOwnVocab returns a view of m that shares its counts but owns a copy
// of its vocabulary. Sampling on the view interns candidate tokens
// (SampleToken), which grows the vocabulary that Prob's smoothing reads;
// the copy keeps that growth out of m. The view must not be trained.
func (m *NGram) withOwnVocab() *NGram {
	view := *m
	view.vocab = m.vocab.clone()
	return &view
}
