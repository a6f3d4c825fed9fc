package core

import "sync/atomic"

// claimer hands targeting positions to workers: one shared atomic,
// positions handed out globally in ascending order from lo. Claim order
// is pure scheduling — the merge loop commits outcomes in canonical
// permutation order whatever the claimer does — so the only guarantee is
// that every position in the run's [lo, hi) window is handed out exactly
// once. The window is the whole targeted prefix for an ordinary run and
// a sub-range of it for a shard (Options.ShardLo/ShardHi). Ascending
// claims track the commit cursor closely, which keeps the merge loop's
// reorder buffer at O(workers).
type claimer struct {
	next   atomic.Int64
	lo, hi int
}

// claim returns the next position, or ok=false when no work remains.
func (c *claimer) claim() (p int, ok bool) {
	p = c.lo + int(c.next.Add(1)) - 1
	return p, p < c.hi
}
