package verilog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// progioSource exercises every codec section: case dispatch (map and
// scan forms), a ROM-shaped always block, non-blocking constant writes,
// and enough comb logic for fragments.
const progioSource = `
module m(input clk, input [3:0] a, input [3:0] b, output reg [3:0] q, output [3:0] s);
  assign s = a ^ b;
  reg [3:0] t;
  always @(*) begin
    case (a)
      4'd0: t = 4'd1;
      4'd1: t = 4'd2;
      4'd2: t = 4'd4;
      default: t = b;
    endcase
  end
  always @(posedge clk) begin
    q <= t + b;
  end
endmodule
`

func compileProgioNetlist(t *testing.T) *Netlist {
	t.Helper()
	nl, err := ElaborateSource(progioSource, "m")
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestProgramCodecRoundTrip(t *testing.T) {
	nl := compileProgioNetlist(t)
	p := nl.Program()
	blob := EncodeProgram(p)
	got, err := DecodeProgram(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("decoded program differs:\n got %+v\nwant %+v", got, p)
	}
	// Deterministic bytes: encode twice (second time from the decoded
	// copy, whose case maps were rebuilt in a different insertion
	// order) and byte-compare.
	if !bytes.Equal(blob, EncodeProgram(got)) {
		t.Fatal("encoding is not deterministic across a decode round-trip")
	}
}

func TestDecodeProgramRejectsGarbage(t *testing.T) {
	nl := compileProgioNetlist(t)
	blob := EncodeProgram(nl.Program())
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"misaligned", blob[:len(blob)-3]},
		{"truncated", blob[:8*(len(blob)/16)]},
		{"wrong-version", append([]byte{0xff, 0, 0, 0, 0, 0, 0, 0}, blob[8:]...)},
		{"trailing", append(append([]byte(nil), blob...), make([]byte, 16)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeProgram(tc.data); err == nil {
				t.Fatal("decode accepted a malformed payload")
			}
		})
	}
}

// TestDecodeProgramRejectsForgedLength: a slice length of 1<<62
// overflows a multiplied bound check. The decoder must still return an
// error, not panic in make: its bytes come from disk.
func TestDecodeProgramRejectsForgedLength(t *testing.T) {
	// The version word, ten zeroed header words, then a forged code
	// length.
	var data []byte
	for _, w := range []uint64{progioVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1 << 62} {
		data = binary.LittleEndian.AppendUint64(data, w)
	}
	if _, err := DecodeProgram(data); err == nil {
		t.Fatal("decode accepted a forged slice length")
	}
}

func TestAdoptProgram(t *testing.T) {
	nl := compileProgioNetlist(t)
	p, err := DecodeProgram(EncodeProgram(nl.Program()))
	if err != nil {
		t.Fatal(err)
	}
	// Fresh netlist adopts the decoded program and Program() returns it.
	nl2 := compileProgioNetlist(t)
	if !nl2.AdoptProgram(p) {
		t.Fatal("matching program not adopted")
	}
	if nl2.Program() != p {
		t.Fatal("adopted program not returned by Program()")
	}
	// A netlist that already compiled keeps its own program.
	nl3 := compileProgioNetlist(t)
	own := nl3.Program()
	if nl3.AdoptProgram(p) {
		t.Fatal("adoption displaced an existing program")
	}
	if nl3.Program() != own {
		t.Fatal("existing program not kept canonical")
	}
	// Shape mismatches are refused.
	nl4 := compileProgioNetlist(t)
	bad := *p
	bad.NumNets = p.NumNets + 1
	if nl4.AdoptProgram(&bad) {
		t.Fatal("adopted a program with the wrong net count")
	}
	if nl4.AdoptProgram(nil) {
		t.Fatal("adopted nil")
	}
}

func TestContentHashStableAcrossElaborations(t *testing.T) {
	a := compileProgioNetlist(t)
	b := compileProgioNetlist(t)
	if a == b {
		t.Fatal("want distinct netlist pointers")
	}
	if a.ContentHash() != b.ContentHash() {
		t.Fatal("re-elaborated netlist hashes differ")
	}
	other, err := ElaborateSource(`module n(input clk, input x, output reg y); always @(posedge clk) y <= ~x; endmodule`, "n")
	if err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() == other.ContentHash() {
		t.Fatal("different designs share a content hash")
	}
}
