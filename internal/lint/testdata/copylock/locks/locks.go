// Fixture for the mutex/atomic hygiene rules.
package locks

import (
	"sync"
	"sync/atomic"
)

type gauge struct {
	mu    sync.Mutex
	count int
}

type counters struct {
	hits atomic.Int64
}

// nested embeds a lock transitively.
type nested struct {
	inner gauge
}

func use(t gauge) int { // value receiver params are call-site findings, see below
	return t.count
}

func flagged() {
	var a gauge
	b := a // want "assignment copies gauge, which holds sync/atomic state"
	_ = b

	use(a) // want "call argument copies gauge, which holds sync/atomic state"

	var n nested
	m := n // want "assignment copies nested, which holds sync/atomic state"
	_ = m

	var c counters
	d := c // want "assignment copies counters, which holds sync/atomic state"
	_ = d

	list := []gauge{{}, {}}
	for _, item := range list { // want "range clause copies gauge, which holds sync/atomic state"
		_ = item
	}
}

func ret(t *gauge) gauge {
	return *t // want "return statement copies gauge, which holds sync/atomic state"
}

// Allowed shapes: fresh composite literals, pointers, and index-free use.
func allowed() *gauge {
	t := gauge{} // fresh literal: never shared, safe to place
	arr := make([]gauge, 4)
	arr[0] = gauge{count: 1} // fresh literal into a slot, the claimer idiom
	for i := range arr {     // index-only range copies nothing
		arr[i].count++
	}
	return &t
}

type valueReceiver struct {
	mu sync.Mutex
}

func (v valueReceiver) peek() int { // want "value receiver copies valueReceiver, which holds sync/atomic state"
	return 0
}
