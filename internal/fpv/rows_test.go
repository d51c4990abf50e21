package fpv

import (
	"math/rand"
	"slices"
	"testing"
)

// rowModel pairs a row store with a flat reference: ref holds the rows
// the store must read back, in order.
type rowModel struct {
	s   rowStore
	ref [][]uint64
}

func (m *rowModel) randRow(rng *rand.Rand) []uint64 {
	r := make([]uint64, m.s.w)
	for i := range r {
		r[i] = rng.Uint64()
	}
	return r
}

// step applies one random push, grow or truncate to the store and the
// reference alike. Grow and truncate sizes reach past a chunk, so both
// cross chunk boundaries.
func (m *rowModel) step(rng *rand.Rand) {
	perChunk := min(1<<m.s.shift, 1<<12)
	switch op := rng.Intn(10); {
	case op < 5:
		r := m.randRow(rng)
		m.s.push(r)
		m.ref = append(m.ref, r)
	case op < 8:
		k := rng.Intn(perChunk + 3)
		base := m.s.n
		m.s.grow(k)
		for i := 0; i < k; i++ {
			r := m.randRow(rng)
			copy(m.s.row(base+i), r)
			m.ref = append(m.ref, r)
		}
	default:
		n := 0
		if len(m.ref) > 0 {
			n = len(m.ref) - rng.Intn(min(len(m.ref), perChunk+2)+1)
		}
		m.s.truncate(n)
		m.ref = m.ref[:n]
	}
}

func (m *rowModel) check(t *testing.T, what string) {
	t.Helper()
	if m.s.n != len(m.ref) {
		t.Fatalf("%s: %d rows, want %d", what, m.s.n, len(m.ref))
	}
	for i, want := range m.ref {
		if got := m.s.row(i); !slices.Equal(got, want) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got, want)
		}
	}
	// Every chunk but the last is full, and each chunk's length is its
	// rows' words, so the codec can write chunks back to back.
	words := 0
	for c, ch := range m.s.chunks {
		if c < len(m.s.chunks)-1 && len(ch) != m.s.w<<m.s.shift {
			t.Fatalf("%s: inner chunk %d holds %d words, want %d", what, c, len(ch), m.s.w<<m.s.shift)
		}
		words += len(ch)
	}
	if words != m.s.words() {
		t.Fatalf("%s: chunks hold %d words, want %d", what, words, m.s.words())
	}
}

// TestRowStoreMatchesFlat is the row store's property test: random
// push, grow and truncate sequences read back exactly what a flat array
// would hold, and two copy-on-write views of one store extend
// independently while the store they share reads unchanged. The widths
// cover zero-width rows, one- and three-word rows, and rows wider than
// the chunk target (one row per chunk).
func TestRowStoreMatchesFlat(t *testing.T) {
	for _, w := range []int{0, 1, 3, rowChunkWords + 5} {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		for trial := 0; trial < 6; trial++ {
			src := &rowModel{s: newRowStore(w)}
			for i := 0; i < 40; i++ {
				src.step(rng)
			}
			src.check(t, "source")
			frozen := append([][]uint64(nil), src.ref...)
			views := []*rowModel{
				{s: src.s.share(), ref: append([][]uint64(nil), src.ref...)},
				{s: src.s.share(), ref: append([][]uint64(nil), src.ref...)},
			}
			for i := 0; i < 40; i++ {
				for _, v := range views {
					v.step(rng)
				}
			}
			for _, v := range views {
				v.check(t, "view")
			}
			src.ref = frozen
			src.check(t, "source after its views grew")
		}
	}
}

// TestRowStoreFirstChunkDoubles: a small store allocates a small first
// chunk, and chunks after the first are allocated at full size.
func TestRowStoreFirstChunkDoubles(t *testing.T) {
	s := newRowStore(3)
	s.push([]uint64{1, 2, 3})
	if got := cap(s.chunks[0]); got != 2*3 {
		t.Fatalf("first chunk of a one-row store has %d words of capacity, want 6", got)
	}
	full := 3 << s.shift
	s.grow(1<<s.shift + 1)
	if cap(s.chunks[0]) != full || cap(s.chunks[1]) != full {
		t.Fatalf("chunk capacities %d and %d, want %d", cap(s.chunks[0]), cap(s.chunks[1]), full)
	}
	if got, want := s.bytes(), int64(8*2*full+24*cap(s.chunks)); got != want {
		t.Fatalf("bytes() = %d, want %d", got, want)
	}
}
