package astore

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"testing"
)

// FuzzVerifyBlob feeds the blob-framing check arbitrary bytes. Blobs are
// read back from disk, so whatever the bytes, verify must answer and
// never panic, and it may accept only a blob whose header names the
// expected magic, version and kind, whose length field matches the bytes
// actually present, and whose trailing CRC-64 matches everything before
// it. The seeds are one blob written by Put and the corruptions
// TestCorruptBlobsAreDiscardedAndRebuilt applies to it.
func FuzzVerifyBlob(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(KindProgram, "k", []byte("canonical artifact bytes 0123456789")); err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(s.path(KindProgram, "k"))
	if err != nil {
		f.Fatal(err)
	}
	mutate := func(m func(b []byte) []byte) []byte {
		return m(append([]byte(nil), blob...))
	}
	f.Add(blob)
	f.Add(mutate(func(b []byte) []byte { return b[:len(b)/2] }))
	f.Add([]byte{})
	f.Add(mutate(func(b []byte) []byte { b[headerSize+3] ^= 0x40; return b }))
	f.Add(mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }))
	f.Add(mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], FormatVersion+1); return b }))
	f.Add(mutate(func(b []byte) []byte { copy(b[0:4], "NOPE"); return b }))
	f.Add(mutate(func(b []byte) []byte { copy(b[8:12], KindGraph); return b }))
	f.Add(mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:24], uint64(len(b))); return b }))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ok := verify(data, KindProgram)
		if !ok {
			return
		}
		if len(data) < headerSize+footerSize {
			t.Fatalf("accepted a %d-byte blob, shorter than its framing", len(data))
		}
		if string(data[0:4]) != blobMagic || binary.LittleEndian.Uint32(data[4:8]) != FormatVersion || string(data[8:12]) != KindProgram {
			t.Fatalf("accepted a blob with header %q", data[:12])
		}
		if n := binary.LittleEndian.Uint64(data[16:24]); n != uint64(len(data)-headerSize-footerSize) {
			t.Fatalf("accepted length field %d for %d payload bytes", n, len(data)-headerSize-footerSize)
		}
		body := data[:len(data)-footerSize]
		if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(data[len(data)-footerSize:]) {
			t.Fatal("accepted a blob whose CRC does not match")
		}
		if !bytes.Equal(payload, data[headerSize:len(data)-footerSize]) {
			t.Fatal("payload is not the bytes between header and footer")
		}
	})
}
