package fpv

import (
	"encoding/binary"
	"fmt"
	"math"
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
	b []byte
}

func (e *graphEncIO) word(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *graphEncIO) num(v int)     { e.word(uint64(int64(v))) }

func (e *graphEncIO) ints(s []int) {
	e.num(len(s))
	for _, v := range s {
		e.num(v)
	}
}

func (e *graphEncIO) words(s []uint64) {
	e.num(len(s))
	for _, v := range s {
		e.word(v)
	}
}

// rows writes a row store as one word array, chunk by chunk.
func (e *graphEncIO) rows(s *rowStore) {
	e.num(s.words())
	for _, c := range s.chunks {
		for _, v := range c {
			e.word(v)
		}
	}
}

// i32s packs an int32 slice two entries per word.
func (e *graphEncIO) i32s(s []int32) {
	e.num(len(s))
	for i := 0; i < len(s); i += 2 {
		w := uint64(uint32(s[i]))
		if i+1 < len(s) {
			w |= uint64(uint32(s[i+1])) << 32
		}
		e.word(w)
	}
}

// EncodeGraph serializes g and an optional hunt trace into an
// artifact-store payload understood by DecodeGraph. The encoding is
// deterministic: equal graphs yield equal bytes.
func EncodeGraph(g *Graph, ht *HuntTrace) []byte {
	// Size the payload up front: 48 words cover every scalar, count and
	// odd int32 half-word.
	n := 48 + len(g.Support) + len(g.Packed) + g.Rows.words() + g.Vecs.words() +
		(len(g.EdgeOff)+len(g.Dst)+len(g.Dedup)+len(g.DedupOff)+len(g.DedupN))/2
	if ht != nil {
		n += len(ht.Support) + ht.Inputs.words() + ht.Rows.words()
	}
	e := &graphEncIO{b: make([]byte, 0, 8*n)}
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
	e.rows(&g.Rows)
	// The flag marks a graph that stores vectors (a bounded graph over a
	// design with data inputs, once it has edges).
	e.word(boolWord(g.Vecs.words() > 0))
	e.rows(&g.Vecs)
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
		e.rows(&ht.Inputs)
		e.rows(&ht.Rows)
	}
	return e.b
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// graphDecIO reads the payload's little-endian words in place.
type graphDecIO struct {
	b   []byte
	pos int // next word
	err error
}

func (d *graphDecIO) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("fpv: decode graph: "+format, args...)
	}
}

// left is the number of unread words.
func (d *graphDecIO) left() int { return len(d.b)/8 - d.pos }

func (d *graphDecIO) word() uint64 {
	if d.err != nil {
		return 0
	}
	if d.left() <= 0 {
		d.fail("truncated at word %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[8*d.pos:])
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
	if n < 0 || n > 2*d.left()/perHalfWords {
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
	d.read(d.pos, s)
	d.pos += n
	return s
}

// read fills s from the words at pos (already bounds-checked by count).
func (d *graphDecIO) read(pos int, s []uint64) {
	b := d.b[8*pos : 8*(pos+len(s))]
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
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

// wordSpan is a word array's place in the payload. Row arrays are read
// as spans and loaded once the arrays after them give their row counts.
type wordSpan struct{ pos, n int }

func (d *graphDecIO) span() wordSpan {
	n := d.count(2)
	if d.err != nil {
		return wordSpan{}
	}
	sp := wordSpan{d.pos, n}
	d.pos += n
	return sp
}

// rows loads sp as a row store of the given row count and width, each
// chunk allocated at its exact size.
func (d *graphDecIO) rows(sp wordSpan, rows, w int, what string) rowStore {
	if d.err != nil {
		return rowStore{}
	}
	if rows < 0 || w < 0 || (w == 0 && sp.n != 0) || (w > 0 && (sp.n%w != 0 || sp.n/w != rows)) {
		d.fail("%d %s words for %d rows x %d words", sp.n, what, rows, w)
		return rowStore{}
	}
	s := newRowStore(w)
	s.n = rows
	if rows == 0 {
		return s
	}
	s.chunks = make([][]uint64, (rows-1)>>s.shift+1)
	for c := range s.chunks {
		r0 := c << s.shift
		s.chunks[c] = make([]uint64, min(rows-r0, 1<<s.shift)*w)
		d.read(sp.pos+r0*w, s.chunks[c])
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
	d := &graphDecIO{b: data}
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
	rows := d.span()
	hasVecs := d.flag()
	vecs := d.span()
	g.Dedup = d.i32s()
	g.DedupOff = d.i32s()
	g.DedupN = d.i32s()

	var ht *HuntTrace
	var htInputs, htRows wordSpan
	if d.flag() {
		ht = &HuntTrace{}
		ht.Runs = d.num()
		ht.Depth = d.num()
		ht.RunsDone = d.num()
		ht.Seed = int64(d.word())
		ht.NumInputs = d.num()
		ht.Support = d.ints()
		htInputs = d.span()
		htRows = d.span()
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if d.left() != 0 {
		return nil, nil, fmt.Errorf("fpv: decode graph: %d trailing words", d.left())
	}
	if err := validateGraph(g, ht); err != nil {
		return nil, nil, err
	}
	// Rows is one row per representative edge in Dedup order (repRow),
	// not one per edge — duplicate edges share their class's row. Vecs
	// holds one vector per edge of a bounded graph and none for an
	// enumerate graph.
	g.Rows = d.rows(rows, len(g.Dedup), len(g.Support), "row")
	vecRows := len(g.Dst)
	if g.Enumerate {
		vecRows = 0
	}
	g.Vecs = d.rows(vecs, vecRows, g.NumInputs, "vec")
	if d.err == nil && hasVecs != (vecs.n > 0) {
		d.fail("vecs flagged %t for %d words", hasVecs, vecs.n)
	}
	if ht != nil {
		steps := ht.RunsDone * ht.Depth
		ht.Inputs = d.rows(htInputs, steps, ht.NumInputs, "hunt input")
		ht.Rows = d.rows(htRows, steps, len(ht.Support), "hunt row")
	}
	if d.err != nil {
		return nil, nil, d.err
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
	spans := 0
	for i := range g.DedupOff {
		// -1 marks an unexpanded node, mirroring EdgeOff.
		if g.DedupOff[i] == -1 && g.DedupN[i] == 0 && g.EdgeOff[i] == -1 {
			continue
		}
		if g.EdgeOff[i] == -1 || g.DedupN[i] < 0 || g.DedupOff[i] < 0 || int(g.DedupOff[i])+int(g.DedupN[i]) > len(g.Dedup) {
			return fmt.Errorf("fpv: decode graph: dedup span [%d,+%d) outside %d entries or on an unexpanded node", g.DedupOff[i], g.DedupN[i], len(g.Dedup))
		}
		// Each expansion appends its own representatives, so the spans
		// together hold at most every entry, which also keeps this check
		// linear.
		if spans += int(g.DedupN[i]); spans > len(g.Dedup) {
			return fmt.Errorf("fpv: decode graph: dedup spans overlap")
		}
		// A representative is one of its node's own edges: the search
		// reads its destination and, in enumerate mode, derives its
		// vector from its position among the node's edges.
		for _, r := range g.Dedup[g.DedupOff[i] : g.DedupOff[i]+g.DedupN[i]] {
			if r < g.EdgeOff[i] || int(r) >= int(g.EdgeOff[i])+g.EdgesPerNode {
				return fmt.Errorf("fpv: decode graph: representative edge %d outside node %d's edges", r, i)
			}
		}
	}
	if ht != nil {
		if ht.Runs < 0 || ht.Depth < 0 || ht.RunsDone < 0 || ht.RunsDone > ht.Runs ||
			(ht.Depth > 0 && ht.RunsDone > math.MaxInt/ht.Depth) {
			return fmt.Errorf("fpv: decode graph: hunt %d/%d runs, depth %d", ht.RunsDone, ht.Runs, ht.Depth)
		}
	}
	return nil
}
