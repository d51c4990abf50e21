// Package llm implements the simulated large-language-model substrate that
// stands in for the paper's COTS LLMs (GPT-3.5, GPT-4o, CodeLLaMa 2,
// LLaMa3-70B) and for the fine-tuned AssertionLLM. See DESIGN.md for the
// substitution argument.
//
// The substrate is a genuine statistical language model — an order-3
// n-gram with interpolated backoff over a Verilog/SVA token vocabulary,
// decoded with temperature and nucleus (top-p) sampling — combined with a
// grammar-guided assertion decoder and a design-conditioned copy mechanism
// for identifiers. Each COTS model is a calibrated Profile whose error
// channels (identifier miscopies, syntax corruption, ungrounded semantics,
// off-task drift) reproduce the failure modes the paper reports; every
// generated string then flows through the real syntax corrector, parser,
// and FPV engine.
package llm

import (
	"maps"
	"slices"
	"strings"
)

// Tokenizer is a lenient lexical splitter: unlike the strict design lexer
// it never fails, so arbitrary (even corrupted) text round-trips.
type Tokenizer struct{}

// Tokenize splits text into Verilog/SVA-style tokens. Unknown bytes come
// through as single-byte tokens, so the tokens joined are the text without
// its blanks (spaces, tabs, CRs).
func (Tokenizer) Tokenize(text string) []string {
	var toks []string
	for i := 0; ; {
		start, end := scan(text, i)
		if start == end {
			return toks
		}
		toks = append(toks, text[start:end])
		i = end
	}
}

// Count returns len(Tokenize(text)) without building the token slice.
func (Tokenizer) Count(text string) int {
	n := 0
	for i := 0; ; n++ {
		start, end := scan(text, i)
		if start == end {
			return n
		}
		i = end
	}
}

// scan returns the bounds of the first token at or after byte i, or an
// empty range when only blanks remain. It holds the lexical rules that
// Tokenize and Count share.
func scan(text string, i int) (start, end int) {
	for i < len(text) && (text[i] == ' ' || text[i] == '\t' || text[i] == '\r') {
		i++
	}
	if i == len(text) {
		return i, i
	}
	c := text[i]
	j := i + 1
	switch {
	case isWordStart(c):
		for j < len(text) && isWordCont(text[j]) {
			j++
		}
	case c >= '0' && c <= '9':
		for j < len(text) && (isWordCont(text[j]) || text[j] == '\'') {
			j++
		}
	default: // a newline, an operator, or any other single byte
		for _, op := range multiOps {
			if op[0] == c && strings.HasPrefix(text[i:], op) {
				j = i + len(op)
				break
			}
		}
	}
	return i, j
}

var multiOps = []string{
	"|->", "|=>", "##", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>",
	"->", "=>", "~^", "^~",
}

// Detokenize joins tokens back into readable text with minimal spacing.
func (Tokenizer) Detokenize(toks []string) string {
	var sb strings.Builder
	for i, t := range toks {
		if t == "\n" {
			sb.WriteByte('\n')
			continue
		}
		if i > 0 && needSpace(toks[i-1], t) {
			sb.WriteByte(' ')
		}
		sb.WriteString(t)
	}
	return sb.String()
}

func needSpace(prev, cur string) bool {
	if prev == "\n" {
		return false
	}
	tight := func(s string) bool {
		switch s {
		case "(", ")", "[", "]", "{", "}", ",", ";", ".", "$":
			return true
		}
		return false
	}
	if tight(prev) && prev != ")" && prev != "]" && prev != "}" {
		return false
	}
	if tight(cur) {
		return false
	}
	return true
}

func isWordStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isWordCont(c byte) bool {
	return isWordStart(c) || (c >= '0' && c <= '9')
}

// Vocab maps token strings to dense ids.
type Vocab struct {
	ids  map[string]int
	toks []string
}

// Special token ids, fixed at vocabulary construction.
const (
	TokBOS = 0
	TokEOS = 1
)

// NewVocab returns a vocabulary seeded with the special tokens.
func NewVocab() *Vocab {
	v := &Vocab{ids: map[string]int{}}
	v.Add("<bos>")
	v.Add("<eos>")
	return v
}

// Add interns a token and returns its id.
func (v *Vocab) Add(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	id := len(v.toks)
	v.ids[tok] = id
	v.toks = append(v.toks, tok)
	return id
}

// ID returns the id of tok, or -1 if unknown.
func (v *Vocab) ID(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	return -1
}

// Token returns the string for an id.
func (v *Vocab) Token(id int) string {
	if id < 0 || id >= len(v.toks) {
		return "<unk>"
	}
	return v.toks[id]
}

// clone returns an independent copy with the same ids.
func (v *Vocab) clone() *Vocab {
	return &Vocab{ids: maps.Clone(v.ids), toks: slices.Clone(v.toks)}
}

// Size is the vocabulary cardinality.
func (v *Vocab) Size() int { return len(v.toks) }

// Encode interns and encodes a token sequence with BOS/EOS framing.
func (v *Vocab) Encode(toks []string) []int {
	out := make([]int, 0, len(toks)+2)
	out = append(out, TokBOS)
	for _, t := range toks {
		out = append(out, v.Add(t))
	}
	out = append(out, TokEOS)
	return out
}
