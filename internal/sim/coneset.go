package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fogbuster/internal/netlist"
)

// ConePolicy selects the in-memory representation of the per-stem
// fanout-cone membership sets behind InCone/ConeGates. The sets are
// built lazily, one stem at a time, so a run that never asks for cone
// membership pays nothing — in particular, Topology construction never
// allocates the dense all-stems matrix (O(nodes²/8) bytes) that made
// >10k-gate circuits memory-hostile.
type ConePolicy uint8

const (
	// ConeAuto picks the cheaper representation per stem: the dense
	// bitset when the membership is fragmented, the interval list when
	// the cone covers few topological runs. This is the default.
	ConeAuto ConePolicy = iota
	// ConeDense forces the dense bitset for every stem, reproducing the
	// pre-compression representation exactly; it is the reference oracle
	// of the property tests.
	ConeDense
	// ConeCompressed forces the interval representation for every stem.
	ConeCompressed
)

// ParseConePolicy resolves a policy name; the empty string means auto.
func ParseConePolicy(s string) (ConePolicy, error) {
	switch s {
	case "", "auto":
		return ConeAuto, nil
	case "dense":
		return ConeDense, nil
	case "compressed":
		return ConeCompressed, nil
	}
	return ConeAuto, fmt.Errorf("sim: unknown cone-set policy %q (want auto, dense or compressed)", s)
}

// String returns the parseable policy name.
func (p ConePolicy) String() string {
	switch p {
	case ConeDense:
		return "dense"
	case ConeCompressed:
		return "compressed"
	default:
		return "auto"
	}
}

// coneSet is the membership set of one stem's fanout cone: the stem
// itself plus every combinational gate whose value can depend on it.
// Exactly one of words (dense bitset over node ids) and runs (sorted
// half-open id intervals [runs[2k], runs[2k+1])) is non-nil.
type coneSet struct {
	gates int32 // combinational gates in the cone
	words []Word
	runs  []int32
}

// contains reports membership of node id.
func (s *coneSet) contains(id int32) bool {
	if s.words != nil {
		return s.words[id/64]&(1<<uint(id%64)) != 0
	}
	// Find the first interval ending beyond id.
	k := sort.Search(len(s.runs)/2, func(k int) bool { return s.runs[2*k+1] > id })
	return k < len(s.runs)/2 && s.runs[2*k] <= id
}

// bytes returns the heap footprint of the set's payload.
func (s *coneSet) bytes() int64 {
	if s.words != nil {
		return int64(len(s.words)) * 8
	}
	return int64(len(s.runs)) * 4
}

// coneScratch is the reusable BFS state of one cone-set construction;
// mark uses an epoch counter so reuse never re-zeroes the array.
type coneScratch struct {
	mark    []int32
	epoch   int32
	members []int32
}

// coneSetsInit allocates the per-stem publication slots on first use.
func (t *Topology) coneSetsInit() {
	t.coneOnce.Do(func() {
		t.coneSealed.Store(true)
		t.coneSets = make([]atomic.Pointer[coneSet], t.NumNodes())
		t.coneScratch = &sync.Pool{New: func() any {
			return &coneScratch{mark: make([]int32, t.NumNodes())}
		}}
	})
}

// coneSetOf returns the cone set of src, building and publishing it on
// first use. Concurrent first uses may build twice; the set is a pure
// function of the topology and the policy, so either copy is correct and
// the first CAS wins.
func (t *Topology) coneSetOf(src netlist.NodeID) *coneSet {
	t.coneSetsInit()
	if s := t.coneSets[src].Load(); s != nil {
		return s
	}
	s := t.buildConeSet(src)
	if !t.coneSets[src].CompareAndSwap(nil, s) {
		s = t.coneSets[src].Load()
	}
	return s
}

// buildConeSet computes one stem's membership by breadth-first search
// over the fanout CSR, crossing only combinational gates — flip-flop
// consumers do not extend a cone, exactly as the frame boundary stops
// the levelized evaluation. The result matches the reverse-topological
// OR-fold the dense all-stems build used: {src} ∪ {gates reachable from
// src through gate-only paths}.
func (t *Topology) buildConeSet(src netlist.NodeID) *coneSet {
	sc := t.coneScratch.Get().(*coneScratch)
	sc.epoch++
	members := sc.members[:0]
	sc.mark[src] = sc.epoch
	members = append(members, int32(src))
	gates := int32(0)
	if t.Types[src].IsGate() {
		gates++
	}
	for head := 0; head < len(members); head++ {
		x := members[head]
		for e := t.FanoutOff[x]; e < t.FanoutOff[x+1]; e++ {
			y := t.FanoutNode[e]
			if !t.Types[y].IsGate() || sc.mark[y] == sc.epoch {
				continue
			}
			sc.mark[y] = sc.epoch
			members = append(members, int32(y))
			gates++
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	s := t.packConeSet(members, gates)
	sc.members = members
	t.coneScratch.Put(sc)
	return s
}

// packConeSet chooses the representation for a sorted membership list
// under the topology's policy and materializes it.
func (t *Topology) packConeSet(members []int32, gates int32) *coneSet {
	runs := 1
	for i := 1; i < len(members); i++ {
		if members[i] != members[i-1]+1 {
			runs++
		}
	}
	denseWords := (t.NumNodes() + 63) / 64
	useRuns := false
	switch t.ConePolicySelected() {
	case ConeCompressed:
		useRuns = true
	case ConeAuto:
		useRuns = 4*2*runs <= 8*denseWords
	}
	s := &coneSet{gates: gates}
	if useRuns {
		s.runs = make([]int32, 0, 2*runs)
		for i := 0; i < len(members); {
			j := i + 1
			for j < len(members) && members[j] == members[j-1]+1 {
				j++
			}
			s.runs = append(s.runs, members[i], members[j-1]+1)
			i = j
		}
		return s
	}
	s.words = make([]Word, denseWords)
	for _, id := range members {
		s.words[id/64] |= 1 << uint(id%64)
	}
	return s
}

// SetConePolicy selects the cone-set representation policy. It must be
// called before the first InCone/ConeGates/ConeFootprint query; changing
// the policy afterwards would mix representations, so the call is
// ignored once any set was built. The engine never calls it — every run
// uses the auto default — so its callers are the property tests, which
// force the dense oracle, and tools that build a private topology.
func (t *Topology) SetConePolicy(p ConePolicy) {
	if !t.coneSealed.Load() {
		t.conePolicy.Store(uint32(p))
	}
}

// ConePolicySelected returns the active cone-set policy.
func (t *Topology) ConePolicySelected() ConePolicy { return ConePolicy(t.conePolicy.Load()) }

// InCone reports whether node id lies in the fanout cone of src (src
// itself included). Sets are built lazily per stem and shared.
func (t *Topology) InCone(src, id netlist.NodeID) bool {
	return t.coneSetOf(src).contains(int32(id))
}

// ConeGates returns the number of combinational gates in the fanout cone
// of node id's stem — the work bound of one event-driven re-evaluation
// seeded there, and the quantity whose distribution (against the total
// gate count) predicts the selective-trace speedup.
func (t *Topology) ConeGates(id netlist.NodeID) int {
	return int(t.coneSetOf(id).gates)
}

// ConeFootprint builds every stem's cone set under the active policy and
// returns the bytes the dense all-stems representation would occupy next
// to the bytes actually held — the memory-diet headline number circstat
// reports. (Dense is what the pre-compression Topology materialized on
// the first InCone touch.)
func (t *Topology) ConeFootprint() (dense, actual int64) {
	n := t.NumNodes()
	dense = int64(n) * int64((n+63)/64) * 8
	for i := 0; i < n; i++ {
		actual += t.coneSetOf(netlist.NodeID(i)).bytes()
	}
	return dense, actual
}
