package bench

import "testing"

// FuzzParseShard feeds ParseShard arbitrary -shard specs. Whatever the
// text, it must return an error or a shard and never panic; a parsed
// non-empty spec satisfies 0 <= index < count, and the empty spec is the
// unsharded (0, 0). The seeds are the specs the shard tests use.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{
		"", "0/1", "0/4", "1/4", "3/4", "0/2", "1/2",
		"1", "/", "1/", "/2", "a/2", "1/b", "1/2/3", "2/2", "3/2", "-1/2", "0/0", "0/-1",
		" 1/2", "1 /2", "abc", "1/2x", "x1/2", "1.5/2", "-1/3",
		"+0/2", "-0/2", "+1/2", "1/+2", "0/+1", "-0/-0", "+0/+2", "0x1/2", "1_0/20", "0/2147483648",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		index, count, err := ParseShard(s)
		if err != nil {
			return
		}
		if s == "" {
			if index != 0 || count != 0 {
				t.Fatalf("ParseShard(%q) = (%d, %d), want the unsharded (0, 0)", s, index, count)
			}
			return
		}
		if index < 0 || index >= count {
			t.Fatalf("ParseShard(%q) = (%d, %d), want 0 <= index < count", s, index, count)
		}
	})
}
