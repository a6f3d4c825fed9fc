package sim

// golden is splitmix64's state increment: 2^64 divided by the golden
// ratio, rounded to odd.
const golden = 0x9E3779B97F4A7C15

// Mix is the splitmix64 finalizer, a bijection of the 64-bit integers
// whose outputs of consecutive inputs are statistically independent.
// Every derived seed and probe sample of the engine passes through it,
// so a seed is a pure function of the values it is derived from.
func Mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// DeriveSeed returns the seed of substream stream of seed: the
// per-fault seed of a run seed and a fault index, or a per-fault stream
// tag under a fault seed.
func DeriveSeed(seed int64, stream uint64) int64 {
	return int64(Mix(uint64(seed) + golden*(stream+1)))
}

// SplitMix is a splitmix64 generator: tiny, allocation-free, and fully
// determined by its (seed, stream) pair.
type SplitMix struct{ s uint64 }

// NewSplitMix starts substream stream of seed.
func NewSplitMix(seed int64, stream uint64) SplitMix {
	return SplitMix{s: uint64(seed) + golden*(stream+1)}
}

// Next advances the generator and returns its next output.
func (p *SplitMix) Next() uint64 {
	p.s += golden
	return Mix(p.s)
}
