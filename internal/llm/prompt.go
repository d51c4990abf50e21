package llm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
)

// Example is one in-context example: a Verilog design and its formally
// verified assertions (paper Sec. III: each tuple has 2-10 assertions).
type Example struct {
	Name       string
	Source     string
	Assertions []string
}

// ExamplesDigest is the hex SHA-256 of examples in order: every name,
// source and assertion line, each length-prefixed so that no two
// distinct lists share a digest. Strings reach the hash through one
// fixed buffer, so the digest allocates the same whatever their length.
func ExamplesDigest(examples []Example) string {
	h := sha256.New()
	var buf [512]byte
	count := func(n int) { h.Write(binary.AppendUvarint(buf[:0], uint64(n))) }
	field := func(s string) {
		count(len(s))
		for len(s) > 0 {
			n := copy(buf[:], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	for _, ex := range examples {
		field(ex.Name)
		field(ex.Source)
		count(len(ex.Assertions))
		for _, a := range ex.Assertions {
			field(a)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Prompt is the structured k-shot prompt of the paper's Fig. 5.
type Prompt struct {
	// Text is the rendered prompt.
	Text string
	// Examples are the in-context examples that survived the context
	// window (most recent kept).
	Examples []Example
	// TestSource is the design under generation, comments/newlines
	// removed as in the paper.
	TestSource string
	// Tokens is the prompt length in tokens.
	Tokens int
	// TruncatedExamples counts ICEs dropped to fit the context window.
	TruncatedExamples int
}

// TaskDescription is the fixed instruction block (Fig. 5 lines 1-2).
const TaskDescription = "You are an expert in SystemVerilog Assertions. " +
	"Your task is to generate the list of assertions to the given verilog design. " +
	"An example is shown below. Generate only the list of assertions for the test program with no additional text."

// BuildPrompt renders the Fig. 5 prompt for a test design with k in-context
// examples, enforcing the model's context window by dropping the oldest
// examples first (what a truncating tokenizer would do).
func BuildPrompt(examples []Example, testSource string, contextWindow int) Prompt {
	var tk Tokenizer
	squeezeTest := Squeeze(testSource)
	render := func(exs []Example) string {
		var sb strings.Builder
		sb.WriteString(TaskDescription)
		sb.WriteString("\n")
		for i, ex := range exs {
			fmt.Fprintf(&sb, "Program %d: %s\n", i+1, Squeeze(ex.Source))
			fmt.Fprintf(&sb, "Assertions %d: %s\n", i+1, strings.Join(ex.Assertions, " "))
		}
		sb.WriteString("Test Program: ")
		sb.WriteString(squeezeTest)
		sb.WriteString("\nTest Assertions:")
		return sb.String()
	}
	kept := append([]Example{}, examples...)
	truncated := 0
	text := render(kept)
	tokens := tk.Count(text)
	for contextWindow > 0 && tokens > contextWindow && len(kept) > 0 {
		kept = kept[1:]
		truncated++
		text = render(kept)
		tokens = tk.Count(text)
	}
	return Prompt{
		Text:              text,
		Examples:          kept,
		TestSource:        squeezeTest,
		Tokens:            tokens,
		TruncatedExamples: truncated,
	}
}

// Squeeze removes comments and newlines from Verilog source, collapsing
// whitespace, as the paper does for prompt construction (Sec. IV).
func Squeeze(src string) string {
	var sb strings.Builder
	sb.Grow(len(src))
	i := 0
	lastSpace := true
	for i < len(src) {
		switch {
		case strings.HasPrefix(src[i:], "//"):
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.HasPrefix(src[i:], "/*"):
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				i = len(src)
			} else {
				i += 2 + end + 2
			}
		case src[i] == '\n' || src[i] == '\t' || src[i] == ' ' || src[i] == '\r':
			if !lastSpace {
				sb.WriteByte(' ')
				lastSpace = true
			}
			i++
		default:
			sb.WriteByte(src[i])
			lastSpace = false
			i++
		}
	}
	return strings.TrimSpace(sb.String())
}
