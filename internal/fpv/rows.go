package fpv

import "math/bits"

// rowChunkWords is the row store's chunk size in words: a chunk holds
// the largest power-of-two number of rows that fits, and at least one.
// Graph sizes are skewed (a few large graphs hold most of the bytes), so
// the chunk only has to be large enough that chunk headers stay noise.
const rowChunkWords = 1024

// rowStore is an append-only array of fixed-width rows (w words each)
// kept in chunks of 1<<shift rows. Only the first chunk grows, by
// doubling, so a tiny graph stays tiny; every later chunk is allocated
// at full size and never copied, so a large graph allocates its bytes
// about once instead of re-copying a doubling flat array. A chunk holds
// whole rows, so row stays one slice expression.
//
// share makes a copy-on-write view for extending a published graph or
// hunt trace: it shares every chunk with its source and never writes to
// it, and the view copies the one partly filled tail chunk before its
// first write into it (two engines may extend the same cache entry at
// once, so the source's spare capacity is off limits).
type rowStore struct {
	w     int  // words per row
	shift uint // log2 of the rows per chunk
	n     int  // rows stored
	// chunks[c] holds rows [c<<shift, (c+1)<<shift); every chunk but the
	// last is full, and each chunk's length is its rows times w.
	chunks [][]uint64
	// shared counts the leading chunks borrowed from the store this one
	// was shared from; they are copied before a write.
	shared int
	// free holds a recycled store's spare full-size chunks, taken before
	// a chunk is made (see recycle and alloc). Their old rows are not
	// cleared, which grow's contract already allows.
	free [][]uint64
}

func newRowStore(w int) rowStore {
	s := rowStore{w: w}
	if w == 0 {
		// Zero-width rows occupy no words: one empty chunk holds them all.
		s.shift = bits.UintSize - 2
		return s
	}
	// Shift the bound rather than multiply the width: a decoded width
	// can be large enough to overflow.
	for rowChunkWords>>(s.shift+1) >= w {
		s.shift++
	}
	return s
}

// row returns row i. Callers may write it only after grow or push made
// it theirs.
func (s *rowStore) row(i int) []uint64 {
	o := (i & (1<<s.shift - 1)) * s.w
	return s.chunks[i>>s.shift][o : o+s.w]
}

// push appends one row.
func (s *rowStore) push(r []uint64) {
	s.grow(1)
	copy(s.row(s.n-1), r)
}

// grow appends k rows for the caller to fill positionally through row:
// a chunk's spare capacity is not cleared, so every new row must be
// written before it is read.
func (s *rowStore) grow(k int) {
	end := s.n + k
	for s.n < end {
		c := s.n >> s.shift
		rows := min(end-c<<s.shift, 1<<s.shift) // rows chunk c holds after this step
		need := rows * s.w
		switch {
		case c == len(s.chunks):
			s.chunks = append(s.chunks, s.alloc(c, need, nil))
		case c < s.shared || need > cap(s.chunks[c]):
			s.chunks[c] = s.alloc(c, need, s.chunks[c])
			s.shared = min(s.shared, c)
		}
		s.chunks[c] = s.chunks[c][:need]
		s.n = c<<s.shift + rows
	}
}

// alloc returns a private copy of chunk c's old contents with room for
// need words: a full chunk, except that the first chunk doubles from its
// old capacity (and from two rows when new). A free chunk, which holds a
// full one, is taken before a chunk is made.
func (s *rowStore) alloc(c, need int, old []uint64) []uint64 {
	size := s.w << s.shift
	if c == 0 && s.w > 0 {
		rows := max(cap(old)/s.w, 2)
		for rows*s.w < need {
			rows *= 2
		}
		size = min(rows*s.w, size)
	}
	var t []uint64
	if n := len(s.free); n > 0 {
		t = s.free[n-1][:len(old)]
		s.free = s.free[:n-1]
	} else {
		t = make([]uint64, len(old), size)
	}
	copy(t, old)
	return t
}

// truncate drops every row from n on (the rollback of a failed
// expansion).
func (s *rowStore) truncate(n int) {
	if n >= s.n {
		return
	}
	nc := 0
	if n > 0 {
		nc = (n-1)>>s.shift + 1
	}
	clear(s.chunks[nc:])
	s.chunks = s.chunks[:nc]
	if nc > 0 {
		s.chunks[nc-1] = s.chunks[nc-1][:(n-(nc-1)<<s.shift)*s.w]
	}
	s.shared = min(s.shared, nc)
	s.n = n
}

// share returns a copy-on-write view of s (see rowStore). Only the chunk
// list is copied; the free chunks stay with s.
func (s *rowStore) share() rowStore {
	v := *s
	v.chunks = append([][]uint64(nil), s.chunks...)
	v.shared = len(v.chunks)
	v.free = nil
	return v
}

// recycle returns an empty store of w-word rows that allocates its
// chunks from s's: its free list holds the chunks s did not borrow and
// s's own free chunks, each that holds a full chunk at the new width.
// s must not be used afterwards. A recycled store thus retains as many
// chunks as the largest store in its line needed, less any too small
// for a later width.
func (s *rowStore) recycle(w int) rowStore {
	r := newRowStore(w)
	size := r.w << r.shift
	if size == 0 {
		return r
	}
	free := s.free[:0]
	for _, cs := range [][][]uint64{s.free, s.chunks[s.shared:]} {
		for _, c := range cs {
			if cap(c) >= size {
				free = append(free, c)
			}
		}
	}
	r.free = free
	return r
}

// words is the stored word count, n*w.
func (s *rowStore) words() int { return s.n * s.w }

// bytes counts the store's allocated capacity: every chunk's and the
// chunk list's.
func (s *rowStore) bytes() int64 {
	b := 24 * cap(s.chunks)
	for _, c := range s.chunks {
		b += 8 * cap(c)
	}
	return int64(b)
}
