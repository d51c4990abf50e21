package mine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"assertionbench/internal/verilog"
)

// countdownCtx is a context whose Err turns context.Canceled on the
// (left+1)-th poll and stays canceled, so a sweep over left cancels a
// miner at every point where it looks.
type countdownCtx struct {
	context.Context
	left  atomic.Int64
	polls atomic.Int64
}

func newCountdown(left int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(left)
	return c
}

func (c *countdownCtx) Err() error {
	c.polls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

type minerFunc func(context.Context, *verilog.Netlist, Options) ([]Mined, error)

// TestCancellationNeverShortens sweeps the poll at which the context is
// canceled: every miner returns either its full result set or ctx.Err(),
// never a shorter set.
func TestCancellationNeverShortens(t *testing.T) {
	miners := []struct {
		name string
		fn   minerFunc
	}{
		{"goldmine", GoldMine},
		{"harm", Harm},
		{"both", Both},
	}
	designs := []struct{ src, top string }{
		{counterSrc, "counter"},
		{arbiterSrc, "arb2"},
	}
	for _, d := range designs {
		nl := elab(t, d.src, d.top)
		for _, m := range miners {
			opt := Options{MaxAssertions: 6}
			full := newCountdown(1 << 40)
			want, err := m.fn(full, nl, opt)
			if err != nil {
				t.Fatalf("%s/%s uncanceled: %v", d.top, m.name, err)
			}
			polls := full.polls.Load()
			if polls == 0 {
				t.Fatalf("%s/%s never polled its context", d.top, m.name)
			}
			stride := polls/64 + 1
			for k := int64(0); k <= polls; k += stride {
				ctx := newCountdown(k)
				got, err := m.fn(ctx, nl, opt)
				if err != nil {
					if !errors.Is(err, context.Canceled) || got != nil {
						t.Fatalf("%s/%s k=%d: got %d results with err %v", d.top, m.name, k, len(got), err)
					}
					continue
				}
				if k < polls {
					t.Fatalf("%s/%s k=%d of %d polls: finished without seeing the cancel", d.top, m.name, k, polls)
				}
				if !sameMined(got, want) {
					t.Fatalf("%s/%s k=%d: %d results differ from the full %d", d.top, m.name, k, len(got), len(want))
				}
			}
		}
	}
}

func sameMined(a, b []Mined) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Assertion.String() != b[i].Assertion.String() || a[i].Result.Status != b[i].Result.Status ||
			a[i].Support != b[i].Support || a[i].Rank != b[i].Rank {
			return false
		}
	}
	return true
}
