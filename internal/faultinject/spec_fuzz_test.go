package faultinject

import "testing"

// FuzzParseSpec feeds ParseSpec arbitrary -inject specs. Whatever the
// text, it must return an error or a plan and never panic, and every
// fault of a parsed plan has a known mode and a non-negative design
// index, attempt cap and delay. The seeds are the specs TestParseSpec
// uses.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"panic:0, error:2:2, delay:1:0:5ms", "  ", "delay:1",
		"panic", "explode:1", "panic:x", "panic:-1", "error:1:x", "error:1:-2",
		"delay:1:0:xs", "delay:1:0:-1ms", "panic:1:2:3ms:4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseSpec(s)
		if err != nil {
			return
		}
		for i, ft := range p.Faults {
			switch ft.Mode {
			case ModePanic, ModeError, ModeDelay:
			default:
				t.Fatalf("ParseSpec(%q) fault %d has unknown mode %q", s, i, ft.Mode)
			}
			if ft.Index < 0 || ft.Attempts < 0 || ft.Delay < 0 {
				t.Fatalf("ParseSpec(%q) fault %d has a negative field: %+v", s, i, ft)
			}
		}
	})
}
