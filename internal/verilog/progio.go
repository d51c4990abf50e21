package verilog

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Program blob codec (artifact-store payload, see internal/astore).
//
// The layout is a flat little-endian []uint64 image — no varints, no
// per-field framing — so an aligned reader can walk it without copying
// and the encoder is a single allocation. Every slice is preceded by
// its element count; map-backed case tables are emitted in sorted key
// order so identical programs encode to identical bytes (the store is
// content-addressed and dverify's determinism oracle assumes bytewise
// stability). Integrity is the container's job (astore checksums every
// blob); DecodeProgram only validates the structural invariants that
// version skew or a foreign payload would break.

// progioVersion stamps the payload layout. Bump on any change to the
// word stream below; old blobs then fail DecodeProgram and are rebuilt.
const progioVersion = 1

type progEnc struct {
	w []uint64
}

func (e *progEnc) word(v uint64) { e.w = append(e.w, v) }
func (e *progEnc) num(v int)     { e.w = append(e.w, uint64(int64(v))) }
func (e *progEnc) flag(b bool)   { e.w = append(e.w, boolWord(b)) }
func (e *progEnc) pair(a, b int32) {
	e.w = append(e.w, uint64(uint32(a))|uint64(uint32(b))<<32)
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (e *progEnc) frags(fs []Frag) {
	e.num(len(fs))
	for _, f := range fs {
		e.num(f.Start)
		e.num(f.End)
		e.num(len(f.Writes))
		e.word(uint64(uint32(f.Result)))
		for _, w := range f.Writes {
			e.word(uint64(uint32(w)))
		}
	}
}

// EncodeProgram serializes p into an artifact-store payload understood
// by DecodeProgram. The encoding is deterministic: equal programs yield
// equal bytes.
func EncodeProgram(p *Program) []byte {
	e := &progEnc{w: make([]uint64, 0, 16+3*len(p.Code))}
	e.word(progioVersion)
	e.num(p.NumNets)
	e.num(p.NumSlots)
	e.num(p.CombStart)
	e.num(p.CombEnd)
	e.num(p.SeqStart)
	e.num(p.SeqEnd)
	e.flag(p.Acyclic)
	e.num(p.SettleLimit)
	e.num(p.StepStart)
	e.num(p.StepEnd)

	e.num(len(p.Code))
	for _, in := range p.Code {
		e.word(uint64(in.Op) | uint64(uint32(in.Dst))<<32)
		e.pair(in.A, in.B)
		e.word(in.Imm)
	}

	e.num(len(p.Cases))
	for _, ct := range p.Cases {
		e.flag(ct.m != nil)
		e.num(len(ct.m))
		keys := make([]uint64, 0, len(ct.m))
		for k := range ct.m { //ab:allow maprange (keys are collected and sorted before encoding)
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			e.word(k)
			e.word(uint64(uint32(ct.m[k])))
		}
		e.num(len(ct.scan))
		for _, sc := range ct.scan {
			e.word(sc.val)
			e.word(sc.mask)
			e.word(uint64(uint32(sc.target)))
		}
	}

	e.num(len(p.Roms))
	for _, rt := range p.Roms {
		e.num(len(rt.vals))
		for _, v := range rt.vals {
			e.word(v)
		}
		e.num(len(rt.write))
		for _, b := range rt.write {
			e.flag(b)
		}
		e.word(rt.defVal)
		e.flag(rt.defWrite)
	}

	e.num(len(p.NBConsts))
	for _, w := range p.NBConsts {
		e.num(w.Net)
		e.word(w.Mask)
		e.word(w.Val)
	}

	e.frags(p.CombFrags)
	e.frags(p.Frags)

	buf := make([]byte, 8*len(e.w))
	for i, w := range e.w {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return buf
}

type progDec struct {
	w   []uint64
	pos int
	err error
}

func (d *progDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("verilog: decode program: "+format, args...)
	}
}

func (d *progDec) word() uint64 {
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

func (d *progDec) num() int { return int(int64(d.word())) }

func (d *progDec) flag() bool { return d.word() != 0 }

// count reads a slice length, bounding it by the words remaining (per
// is the minimum words one element consumes) so a foreign payload
// cannot trigger an absurd allocation. The bound divides rather than
// multiplies, so a forged length cannot overflow past it.
func (d *progDec) count(per int) int {
	n := d.num()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > (len(d.w)-d.pos)/per {
		d.fail("implausible count %d at word %d", n, d.pos-1)
		return 0
	}
	return n
}

func (d *progDec) frags() []Frag {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	fs := make([]Frag, n)
	for i := range fs {
		fs[i].Start = d.num()
		fs[i].End = d.num()
		nw := d.count(1)
		fs[i].Result = int32(uint32(d.word()))
		if nw > 0 {
			fs[i].Writes = make([]int32, nw)
			for j := range fs[i].Writes {
				fs[i].Writes[j] = int32(uint32(d.word()))
			}
		}
	}
	return fs
}

// DecodeProgram rebuilds a Program from an EncodeProgram payload. It
// returns an error on version skew, truncation, or structural
// inconsistency; callers treat any error as a cache miss and recompile.
func DecodeProgram(data []byte) (*Program, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("verilog: decode program: payload length %d not word-aligned", len(data))
	}
	w := make([]uint64, len(data)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	d := &progDec{w: w}
	if v := d.word(); d.err == nil && v != progioVersion {
		return nil, fmt.Errorf("verilog: decode program: payload version %d, want %d", v, progioVersion)
	}
	p := &Program{}
	p.NumNets = d.num()
	p.NumSlots = d.num()
	p.CombStart = d.num()
	p.CombEnd = d.num()
	p.SeqStart = d.num()
	p.SeqEnd = d.num()
	p.Acyclic = d.flag()
	p.SettleLimit = d.num()
	p.StepStart = d.num()
	p.StepEnd = d.num()

	nCode := d.count(3)
	if nCode > 0 {
		p.Code = make([]Instr, nCode)
		for i := range p.Code {
			w0 := d.word()
			p.Code[i].Op = IOp(uint8(w0))
			p.Code[i].Dst = int32(uint32(w0 >> 32))
			w1 := d.word()
			p.Code[i].A = int32(uint32(w1))
			p.Code[i].B = int32(uint32(w1 >> 32))
			p.Code[i].Imm = d.word()
		}
	}

	nCases := d.count(3)
	if nCases > 0 {
		p.Cases = make([]caseTable, nCases)
		for i := range p.Cases {
			hasMap := d.flag()
			nm := d.count(2)
			if hasMap {
				p.Cases[i].m = make(map[uint64]int32, nm)
			}
			for j := 0; j < nm; j++ {
				k := d.word()
				v := int32(uint32(d.word()))
				if p.Cases[i].m != nil {
					p.Cases[i].m[k] = v
				}
			}
			ns := d.count(3)
			if ns > 0 {
				p.Cases[i].scan = make([]caseScanEntry, ns)
				for j := range p.Cases[i].scan {
					p.Cases[i].scan[j].val = d.word()
					p.Cases[i].scan[j].mask = d.word()
					p.Cases[i].scan[j].target = int32(uint32(d.word()))
				}
			}
		}
	}

	nRoms := d.count(4)
	if nRoms > 0 {
		p.Roms = make([]romTable, nRoms)
		for i := range p.Roms {
			nv := d.count(1)
			if nv > 0 {
				p.Roms[i].vals = make([]uint64, nv)
				for j := range p.Roms[i].vals {
					p.Roms[i].vals[j] = d.word()
				}
			}
			nw := d.count(1)
			if nw > 0 {
				p.Roms[i].write = make([]bool, nw)
				for j := range p.Roms[i].write {
					p.Roms[i].write[j] = d.flag()
				}
			}
			p.Roms[i].defVal = d.word()
			p.Roms[i].defWrite = d.flag()
		}
	}

	nNB := d.count(3)
	if nNB > 0 {
		p.NBConsts = make([]NBWrite, nNB)
		for i := range p.NBConsts {
			p.NBConsts[i].Net = d.num()
			p.NBConsts[i].Mask = d.word()
			p.NBConsts[i].Val = d.word()
		}
	}

	p.CombFrags = d.frags()
	p.Frags = d.frags()

	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.w) {
		return nil, fmt.Errorf("verilog: decode program: %d trailing words", len(d.w)-d.pos)
	}
	if err := validateProgram(p); err != nil {
		return nil, err
	}
	return p, nil
}

// validateProgram checks the cross-field invariants an executor relies
// on, so a decoded program from a stale or foreign blob cannot index
// out of its own code or slot space.
func validateProgram(p *Program) error {
	n := len(p.Code)
	section := func(name string, start, end int) error {
		if start < 0 || end < start || end > n {
			return fmt.Errorf("verilog: decode program: %s section [%d,%d) outside code of %d instrs", name, start, end, n)
		}
		return nil
	}
	if p.NumNets < 0 || p.NumSlots < p.NumNets {
		return fmt.Errorf("verilog: decode program: %d slots for %d nets", p.NumSlots, p.NumNets)
	}
	if err := section("comb", p.CombStart, p.CombEnd); err != nil {
		return err
	}
	if err := section("seq", p.SeqStart, p.SeqEnd); err != nil {
		return err
	}
	if err := section("step", p.StepStart, p.StepEnd); err != nil {
		return err
	}
	for _, fs := range [][]Frag{p.CombFrags, p.Frags} {
		for _, f := range fs {
			if err := section("frag", f.Start, f.End); err != nil {
				return err
			}
		}
	}
	for _, w := range p.NBConsts {
		if w.Net < 0 || w.Net >= p.NumSlots {
			return fmt.Errorf("verilog: decode program: NB const writes slot %d of %d", w.Net, p.NumSlots)
		}
	}
	return nil
}
