package mine

import (
	"context"

	"assertionbench/internal/verilog"
)

// CounterSrc and ArbiterSrc are the small designs of the package's own
// tests.
const CounterSrc, ArbiterSrc = counterSrc, arbiterSrc

// BothRounds reports how many verification rounds GoldMine's and Harm's
// candidate lists take part in when Both mines nl. A list's batches do
// not depend on the other list, so these are the rounds each takes when
// verified alone, which is how they are counted here.
func BothRounds(nl *verilog.Netlist, opt Options) (gm, hm int, err error) {
	d, err := newDesign(nl, opt)
	if err != nil {
		return 0, 0, err
	}
	defer engines.Put(d.eng)
	var n [2]int
	for i, cands := range [][]candidate{d.goldMineCands(), d.harmCands()} {
		p := pending{cands: cands}
		for cs := p.fill(d, nil); len(cs) > 0; cs = p.fill(d, nil) {
			n[i]++
			p.keep(d, d.eng.VerifyBatch(context.Background(), d.nl, cs, d.opt.FPV))
		}
	}
	return n[0], n[1], nil
}
