package llm

import (
	"math"
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

// FuzzFinetune fine-tunes on one example whose assertion lines are the
// input's lines, for 1 to 3 epochs. Invariants: the result equals the
// epoch loop's bit for bit (sameFinetune), and the gain is finite.
func FuzzFinetune(f *testing.F) {
	for i, ex := range finetuneCorpus()[:8] {
		f.Add(strings.Join(ex.Assertions, "\n"), uint8(i))
	}
	f.Add(strings.Join(pretrainCorpus, "\n"), uint8(2))
	f.Add(strings.Join(pretrainCorpus[:7], "\n"), uint8(1))
	// Fresh identifiers: their vocabulary ids follow the first epoch's order.
	f.Add("wr_q == 1 |-> full_q == 0;\nrd_q == 1 |=> empty_q == 0;\nlvl_q != 0 |-> busy_q == 1;\n"+
		"push_q && pop_q |=> $stable(lvl_q);\nclr_q == 1 |=> lvl_q == 0;\nhead_q != tail_q |-> busy_q;", uint8(0))

	base := New(CodeLlama2())
	f.Fuzz(func(t *testing.T, text string, epochs uint8) {
		corpus := []Example{{Name: "fuzz", Assertions: strings.Split(text, "\n")}}
		opt := FinetuneOptions{Epochs: 1 + int(epochs%3)}
		report, err := sameFinetune(base, corpus, opt)
		if err != nil {
			t.Fatalf("%d epochs on %q: %v", opt.Epochs, text, err)
		}
		if math.IsNaN(report.Gain) || math.IsInf(report.Gain, 0) {
			t.Fatalf("gain %v on %q", report.Gain, text)
		}
	})
}
