package order

import (
	"math/rand"

	"fogbuster/internal/faults"
	"fogbuster/internal/fausim"
	"fogbuster/internal/netlist"
	"fogbuster/internal/sim"
)

// ADI scoring parameters: how many random sequences are fault simulated
// and how many frames each applies. The counts are small because the
// 64-way batched StuckCoverage makes one sequence over the whole line
// universe cost a handful of dual-rail replays.
const (
	adiSequences = 24
	adiFrames    = 16
)

// adiKeys orders by ascending accidental detection index. The index of
// a delay fault is the number of random sequences that detect the
// stuck-at fault with the same momentary signature: a slow-to-rise
// fault holds its line at 0 past the capture edge (stuck-at-0), a
// slow-to-fall fault holds it at 1 (stuck-at-1). Faults that random
// stimuli rarely detect come first; the frequently-detected tail is
// likely to be swept up by simulation credit before it is ever
// targeted.
func adiKeys(c *netlist.Circuit, all []faults.Delay, seed int64) []int64 {
	net := sim.NewNet(c)
	fs := fausim.New(net)
	lines := c.Lines()
	counts := make(map[netlist.Line][2]int, len(lines))
	rng := rand.New(rand.NewSource(seed ^ 0x41444931)) // "ADI1"
	for s := 0; s < adiSequences; s++ {
		vectors := make([][]sim.V3, adiFrames)
		for f := range vectors {
			vec := make([]sim.V3, len(c.PIs))
			for i := range vec {
				vec[i] = sim.V3(rng.Intn(2))
			}
			vectors[f] = vec
		}
		cov := fs.StuckCoverage(vectors, lines)
		for i, l := range lines {
			cnt := counts[l]
			if cov[i][0] {
				cnt[0]++
			}
			if cov[i][1] {
				cnt[1]++
			}
			counts[l] = cnt
		}
	}
	key := make([]int64, len(all))
	for i, f := range all {
		cnt := counts[f.Line]
		if f.Type == faults.SlowToRise {
			key[i] = int64(cnt[0])
		} else {
			key[i] = int64(cnt[1])
		}
	}
	return key
}
