package main

import (
	"fmt"
	"testing"

	"fogbuster/internal/bench"
	"fogbuster/internal/core"
	"fogbuster/internal/order"
)

// TestReplayMatchesCore pins the traced replay to the engine: on the full
// s27 universe and on 64-position s298 and 32-position s386 prefixes,
// under natural and ADI order and with deferred credit, the replay must
// reproduce a single-worker core run's statuses, sequences and pattern
// count exactly.
func TestReplayMatchesCore(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		opts    core.Options
	}{
		{"s27", core.Options{Seed: 3}},
		{"s27", core.Options{Seed: 3, Order: order.ADI}},
		{"s298", core.Options{Seed: 5, MaxTargets: 64}},
		{"s298", core.Options{Seed: 5, MaxTargets: 64, Order: order.ADI}},
		{"s298", core.Options{Seed: 5, MaxTargets: 64, DeferCredit: true}},
		// A prefix where the propagation phase's decision probes decide a
		// sequence, so the probe seed stream is pinned too.
		{"s386", core.Options{Seed: 5, MaxTargets: 32}},
	} {
		t.Run(fmt.Sprintf("%s/%s/defer=%v", tc.circuit, tc.opts.Order, tc.opts.DeferCredit), func(t *testing.T) {
			c := bench.ProfileByName(tc.circuit).Circuit()
			opts := tc.opts
			opts.Workers = 1
			sum := core.MustNew(c, opts).Run()
			var cnt layerCounts
			got, err := runReplay(c, tc.opts, newRecorder(), &cnt, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareWithCore(tc.circuit, sum, got); err != nil {
				t.Fatal(err)
			}
			if sum.Explicit == 0 || cnt.nextCalls == 0 || cnt.validations == 0 {
				t.Fatalf("replay did no work: %+v", cnt)
			}
		})
	}
}

// TestReplayRefusesFillPath: where a candidate's lane-0 fill does not
// confirm, core goes on to its 64-lane retry, which the replay does not
// re-enact, so validate must stop with errFillPath instead of accepting
// or rejecting the candidate. Every s27 test sequence offered for a
// fault it was not generated for gives such candidates.
func TestReplayRefusesFillPath(t *testing.T) {
	c := bench.ProfileByName("s27").Circuit()
	sum := core.MustNew(c, core.Options{Seed: 3, Workers: 1}).Run()
	r := newReplay(c, core.Options{Seed: 3}, newRecorder(), new(layerCounts), 0)
	refused, confirmed := 0, 0
	for _, fr := range sum.Results {
		if fr.Seq == nil {
			continue
		}
		for _, other := range sum.Results {
			seq := *fr.Seq
			seq.Fault = other.Fault
			switch _, err := r.validate(&seq, 0, -1); err {
			case nil:
				confirmed++
			case errFillPath:
				refused++
			default:
				t.Fatal(err)
			}
		}
	}
	if refused == 0 || confirmed == 0 {
		t.Fatalf("refused %d and confirmed %d candidates, want some of each", refused, confirmed)
	}
}
