package fpv

import (
	"encoding/binary"
	"fmt"
)

// Graph blob codec (artifact-store payload, see internal/astore).
//
// A Graph is already a bit-packed flat structure — []uint64 register
// images, int32 edge arrays — so the payload is essentially the arrays
// themselves behind a fixed header of scalars and lengths, as
// little-endian 64-bit words (int32 arrays are packed two per word).
// The optional hunt trace rides in the same payload so a warm process
// restores the bounded-mode stimulus history along with the graph.
// Integrity is the container's job (astore checksums every blob);
// DecodeGraph only validates the structural invariants that version
// skew or a foreign payload would break, and callers treat any error
// as a cache miss and re-explore.

// graphioVersion stamps the payload layout. Bump on any change to the
// word stream below; old blobs then fail DecodeGraph and are rebuilt.
const graphioVersion = 1

type graphEncIO struct {
	w []uint64
}

func (e *graphEncIO) word(v uint64) { e.w = append(e.w, v) }
func (e *graphEncIO) num(v int)     { e.w = append(e.w, uint64(int64(v))) }

func (e *graphEncIO) ints(s []int) {
	e.num(len(s))
	for _, v := range s {
		e.num(v)
	}
}

func (e *graphEncIO) words(s []uint64) {
	e.num(len(s))
	e.w = append(e.w, s...)
}

// i32s packs an int32 slice two entries per word.
func (e *graphEncIO) i32s(s []int32) {
	e.num(len(s))
	for i := 0; i < len(s); i += 2 {
		w := uint64(uint32(s[i]))
		if i+1 < len(s) {
			w |= uint64(uint32(s[i+1])) << 32
		}
		e.w = append(e.w, w)
	}
}

// EncodeGraph serializes g and an optional hunt trace into an
// artifact-store payload understood by DecodeGraph. The encoding is
// deterministic: equal graphs yield equal bytes.
func EncodeGraph(g *Graph, ht *HuntTrace) []byte {
	e := &graphEncIO{w: make([]uint64, 0, 16+len(g.Packed)+len(g.Rows)+len(g.Vecs))}
	e.word(graphioVersion)
	e.num(g.PackWords)
	e.num(g.NumInputs)
	e.word(boolWord(g.Enumerate))
	e.num(g.EdgesPerNode)
	e.num(g.Expanded)
	e.num(g.Nodes)
	e.ints(g.Support)
	e.words(g.Packed)
	e.i32s(g.EdgeOff)
	e.i32s(g.Dst)
	e.words(g.Rows)
	// Vecs is nil exactly when Enumerate; keep the distinction.
	e.word(boolWord(g.Vecs != nil))
	e.words(g.Vecs)
	e.i32s(g.Dedup)
	e.i32s(g.DedupOff)
	e.i32s(g.DedupN)

	e.word(boolWord(ht != nil))
	if ht != nil {
		e.num(ht.Runs)
		e.num(ht.Depth)
		e.num(ht.RunsDone)
		e.word(uint64(ht.Seed))
		e.num(ht.NumInputs)
		e.ints(ht.Support)
		e.words(ht.Inputs)
		e.words(ht.Rows)
	}

	buf := make([]byte, 8*len(e.w))
	for i, w := range e.w {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return buf
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type graphDecIO struct {
	w   []uint64
	pos int
	err error
}

func (d *graphDecIO) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("fpv: decode graph: "+format, args...)
	}
}

func (d *graphDecIO) word() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.w) {
		d.fail("truncated at word %d", d.pos)
		return 0
	}
	v := d.w[d.pos]
	d.pos++
	return v
}

func (d *graphDecIO) num() int { return int(int64(d.word())) }

func (d *graphDecIO) flag() bool { return d.word() != 0 }

// count reads a slice length, bounding it by the words remaining
// (elements consume at least perHalfWords half-words, which allows the
// packed int32 arrays' 2-per-word density) so a foreign payload cannot
// trigger an absurd allocation. The bound divides rather than
// multiplies, so a forged length cannot overflow past it.
func (d *graphDecIO) count(perHalfWords int) int {
	n := d.num()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > 2*(len(d.w)-d.pos)/perHalfWords {
		d.fail("implausible count %d at word %d", n, d.pos-1)
		return 0
	}
	return n
}

func (d *graphDecIO) ints() []int {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	s := make([]int, n)
	for i := range s {
		s[i] = d.num()
	}
	return s
}

func (d *graphDecIO) words() []uint64 {
	n := d.count(2)
	if n == 0 || d.err != nil {
		return nil
	}
	s := make([]uint64, n)
	copy(s, d.w[d.pos:d.pos+n])
	d.pos += n
	return s
}

func (d *graphDecIO) i32s() []int32 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	s := make([]int32, n)
	for i := 0; i < n; i += 2 {
		w := d.word()
		s[i] = int32(uint32(w))
		if i+1 < n {
			s[i+1] = int32(uint32(w >> 32))
		}
	}
	return s
}

// DecodeGraph rebuilds a Graph (and its optional hunt trace) from an
// EncodeGraph payload. It returns an error on version skew, truncation,
// or structural inconsistency; callers treat any error as a cache miss
// and re-explore.
func DecodeGraph(data []byte) (*Graph, *HuntTrace, error) {
	if len(data)%8 != 0 {
		return nil, nil, fmt.Errorf("fpv: decode graph: payload length %d not word-aligned", len(data))
	}
	w := make([]uint64, len(data)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	d := &graphDecIO{w: w}
	if v := d.word(); d.err == nil && v != graphioVersion {
		return nil, nil, fmt.Errorf("fpv: decode graph: payload version %d, want %d", v, graphioVersion)
	}
	g := &Graph{}
	g.PackWords = d.num()
	g.NumInputs = d.num()
	g.Enumerate = d.flag()
	g.EdgesPerNode = d.num()
	g.Expanded = d.num()
	g.Nodes = d.num()
	g.Support = d.ints()
	g.Packed = d.words()
	g.EdgeOff = d.i32s()
	g.Dst = d.i32s()
	g.Rows = d.words()
	hasVecs := d.flag()
	g.Vecs = d.words()
	if hasVecs && g.Vecs == nil {
		g.Vecs = []uint64{}
	}
	if !hasVecs && g.Vecs != nil {
		d.fail("vecs present but flagged absent")
	}
	g.Dedup = d.i32s()
	g.DedupOff = d.i32s()
	g.DedupN = d.i32s()

	var ht *HuntTrace
	if d.flag() {
		ht = &HuntTrace{}
		ht.Runs = d.num()
		ht.Depth = d.num()
		ht.RunsDone = d.num()
		ht.Seed = int64(d.word())
		ht.NumInputs = d.num()
		ht.Support = d.ints()
		ht.Inputs = d.words()
		ht.Rows = d.words()
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if d.pos != len(d.w) {
		return nil, nil, fmt.Errorf("fpv: decode graph: %d trailing words", len(d.w)-d.pos)
	}
	if err := validateGraph(g, ht); err != nil {
		return nil, nil, err
	}
	return g, ht, nil
}

// validateGraph checks the cross-array invariants explorers rely on, so
// a decoded graph from a stale or foreign blob cannot index out of its
// own arrays.
func validateGraph(g *Graph, ht *HuntTrace) error {
	if g.PackWords < 0 || g.Nodes < 0 || g.Expanded < 0 || g.Expanded > g.Nodes {
		return fmt.Errorf("fpv: decode graph: %d expanded of %d nodes, %d pack words", g.Expanded, g.Nodes, g.PackWords)
	}
	if len(g.Packed) != g.Nodes*g.PackWords {
		return fmt.Errorf("fpv: decode graph: %d packed words for %d nodes x %d", len(g.Packed), g.Nodes, g.PackWords)
	}
	if len(g.EdgeOff) != g.Nodes {
		return fmt.Errorf("fpv: decode graph: %d edge offsets for %d nodes", len(g.EdgeOff), g.Nodes)
	}
	edges := len(g.Dst)
	// Rows is one row per representative edge in Dedup order (repRow),
	// not one per edge — duplicate edges share their class's row.
	if len(g.Rows) != len(g.Dedup)*len(g.Support) {
		return fmt.Errorf("fpv: decode graph: %d row words for %d representatives x %d support", len(g.Rows), len(g.Dedup), len(g.Support))
	}
	if g.Vecs != nil && len(g.Vecs) != edges*g.NumInputs {
		return fmt.Errorf("fpv: decode graph: %d vec words for %d edges x %d inputs", len(g.Vecs), edges, g.NumInputs)
	}
	for _, off := range g.EdgeOff {
		if off < -1 || (off >= 0 && int(off)+g.EdgesPerNode > edges) {
			return fmt.Errorf("fpv: decode graph: edge offset %d outside %d edges", off, edges)
		}
	}
	for _, dst := range g.Dst {
		if dst < 0 || int(dst) >= g.Nodes {
			return fmt.Errorf("fpv: decode graph: edge destination %d outside %d nodes", dst, g.Nodes)
		}
	}
	if len(g.DedupOff) != g.Nodes || len(g.DedupN) != g.Nodes {
		return fmt.Errorf("fpv: decode graph: %d dedup offsets, %d counts for %d nodes", len(g.DedupOff), len(g.DedupN), g.Nodes)
	}
	for i := range g.DedupOff {
		// -1 marks an unexpanded node, mirroring EdgeOff.
		if g.DedupOff[i] == -1 && g.DedupN[i] == 0 {
			continue
		}
		if g.DedupN[i] < 0 || g.DedupOff[i] < 0 || int(g.DedupOff[i])+int(g.DedupN[i]) > len(g.Dedup) {
			return fmt.Errorf("fpv: decode graph: dedup span [%d,+%d) outside %d entries", g.DedupOff[i], g.DedupN[i], len(g.Dedup))
		}
	}
	if ht != nil {
		if ht.Runs < 0 || ht.Depth < 0 || ht.RunsDone < 0 || ht.RunsDone > ht.Runs {
			return fmt.Errorf("fpv: decode graph: hunt %d/%d runs, depth %d", ht.RunsDone, ht.Runs, ht.Depth)
		}
		steps := ht.RunsDone * ht.Depth
		if len(ht.Inputs) != steps*ht.NumInputs {
			return fmt.Errorf("fpv: decode graph: %d hunt input words for %d steps x %d inputs", len(ht.Inputs), steps, ht.NumInputs)
		}
		if len(ht.Rows) != steps*len(ht.Support) {
			return fmt.Errorf("fpv: decode graph: %d hunt row words for %d steps x %d support", len(ht.Rows), steps, len(ht.Support))
		}
	}
	return nil
}
