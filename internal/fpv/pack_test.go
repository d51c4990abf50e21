package fpv

import (
	"context"
	"testing"

	"assertionbench/internal/verilog"
)

// TestUnpackInputsMultiWord checks the positional unpack against a
// bit-by-bit reference across word boundaries — the regression for the
// old single-word form, which silently read every input past bit 63 as
// zero.
func TestUnpackInputsMultiWord(t *testing.T) {
	widths := []int{40, 40, 16, 33} // 129 bits -> 3 words, two straddles
	words := []uint64{0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x1CE5}
	vals := make([]uint64, len(widths))
	unpackInputs(vals, widths, words)
	pos := 0
	for i, w := range widths {
		var ref uint64
		for b := 0; b < w; b++ {
			bit := (words[(pos+b)>>6] >> uint((pos+b)&63)) & 1
			ref |= bit << uint(b)
		}
		if vals[i] != ref {
			t.Errorf("input %d (width %d at bit %d) = %#x, want %#x", i, w, pos, vals[i], ref)
		}
		pos += w
	}
	if vals[2] == 0 || vals[3] == 0 {
		t.Error("inputs past bit 63 unpacked as zero — the old single-word bug")
	}
}

// TestUnpackInputsSingleWordCompat pins the narrow-design behavior: for
// up to 64 packed bits the positional unpack must match the historical
// shift-and-consume loop bit for bit, so existing seeds keep their
// search trajectories.
func TestUnpackInputsSingleWordCompat(t *testing.T) {
	widths := []int{3, 1, 8, 4, 17, 31} // exactly 64 bits
	vals := make([]uint64, len(widths))
	for _, w := range []uint64{0, ^uint64(0), 0xDEADBEEFCAFE1234, 1} {
		unpackInputs(vals, widths, []uint64{w})
		v := w
		for i, width := range widths {
			want := v & verilog.WidthMask(width)
			if vals[i] != want {
				t.Fatalf("word %#x input %d = %#x, want %#x", w, i, vals[i], want)
			}
			v >>= uint(width)
		}
	}
}

func TestInputWords(t *testing.T) {
	cases := []struct {
		widths []int
		want   int
	}{
		{nil, 1},
		{[]int{1}, 1},
		{[]int{64}, 1},
		{[]int{33, 31}, 1},
		{[]int{33, 32}, 2},
		{[]int{64, 64, 1}, 3},
	}
	for _, c := range cases {
		if got := inputWords(c.widths); got != c.want {
			t.Errorf("inputWords(%v) = %d, want %d", c.widths, got, c.want)
		}
	}
}

// TestWideInputBeyond64BitsIsDriven: on a design wider than 64 input
// bits, the bounded search must still drive the inputs past bit 63 —
// here the violation requires b (packed at bit 64) to go high. Cone
// reduction is disabled so the full 65-bit packing layer is exercised.
func TestWideInputBeyond64BitsIsDriven(t *testing.T) {
	nl := elab(t, `
module wide(clk, a, b, r);
input clk;
input [63:0] a;
input b;
output r; reg r;
always @(posedge clk) r <= b;
endmodule`, "wide")
	if nl.InputBits() != 65 {
		t.Fatalf("input bits = %d, want 65", nl.InputBits())
	}
	r := VerifySource(context.Background(), nl, "a == a |-> b == 0", Options{
		MaxProductStates: 100, MaxInputBits: 4, MaxInputSamples: 4,
		RandomRuns: 2, RandomDepth: 4, Seed: 1, FullDesign: true,
	})
	if r.Status != StatusCEX {
		t.Fatalf("verdict %v, want cex (b must be driven high)", r.Status)
	}
	bPos := -1
	for pos, idx := range nl.Inputs {
		if nl.Nets[idx].Name == "b" {
			bPos = pos
		}
	}
	if bPos < 0 {
		t.Fatal("no input b")
	}
	driven := false
	for _, row := range r.CEX.Inputs {
		if row[bPos] == 1 {
			driven = true
		}
	}
	if !driven {
		t.Error("CEX stimulus never drives b high")
	}
}
