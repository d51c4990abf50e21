package llm

import (
	"strings"
	"testing"
)

// FuzzTokenize drives the tokenizer with arbitrary text. Invariants: Count
// agrees with Tokenize, and the tokens joined are the text with its blanks
// (spaces, tabs, CRs) removed, so no byte is lost, re-encoded or invented.
func FuzzTokenize(f *testing.F) {
	for _, line := range pretrainCorpus {
		f.Add(line)
	}
	f.Add("x = é;\r\n\tassert ¬(a |-> b)")

	blanks := strings.NewReplacer(" ", "", "\t", "", "\r", "")
	f.Fuzz(func(t *testing.T, s string) {
		var tk Tokenizer
		toks := tk.Tokenize(s)
		if n := tk.Count(s); n != len(toks) {
			t.Fatalf("Count = %d, len(Tokenize) = %d for %q", n, len(toks), s)
		}
		if got, want := strings.Join(toks, ""), blanks.Replace(s); got != want {
			t.Fatalf("tokens %q join to %q, want %q", toks, got, want)
		}
	})
}
