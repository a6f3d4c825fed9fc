package service

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

// TestSubmitFullQueueLeavesNoTrace submits from several goroutines into
// a full queue: every rejected job must be gone from both the registry
// and the eviction order, which eviction alone would trim only once the
// registry outgrew MaxJobs.
func TestSubmitFullQueueLeavesNoTrace(t *testing.T) {
	s := newScheduler(2, 0, 1024, nil) // no runners: the queue stays full
	for i := 0; i < 2; i++ {
		if err := s.submit(&job{id: s.newID()}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				if err := s.submit(&job{id: s.newID()}); !errors.Is(err, ErrQueueFull) {
					t.Errorf("submit into a full queue: err = %v, want ErrQueueFull", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != 2 || len(s.order) != 2 {
		t.Fatalf("%d jobs registered and %d ids in the eviction order, want 2 and 2", len(s.jobs), len(s.order))
	}
}

// TestEvictOldestFinished: past MaxJobs, each submit evicts the oldest
// finished jobs until the bound holds again and never a live one; the
// eviction order keeps exactly the registered ids, oldest first.
func TestEvictOldestFinished(t *testing.T) {
	s := newScheduler(16, 0, 4, nil) // no runners: a job is live until marked done
	var jobs []*job
	submit := func() {
		j := &job{id: s.newID(), state: StateQueued}
		if err := s.submit(j); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	finish := func(ns ...int) {
		for _, n := range ns {
			jobs[n-1].mu.Lock()
			jobs[n-1].state = StateDone
			jobs[n-1].mu.Unlock()
		}
	}
	// want lists the registered jobs, numbered from 1 in submit order.
	want := func(ns ...int) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		var ids []string
		for _, n := range ns {
			ids = append(ids, jobs[n-1].id)
			if _, ok := s.jobs[jobs[n-1].id]; !ok {
				t.Fatalf("job %d evicted, want registered", n)
			}
		}
		if len(s.jobs) != len(ns) || !slices.Equal(s.order, ids) {
			t.Fatalf("%d jobs registered, order %v; want order %v", len(s.jobs), s.order, ids)
		}
	}
	for range 4 {
		submit()
	}
	finish(2, 3)
	submit()
	want(1, 3, 4, 5)
	submit()
	want(1, 4, 5, 6)
	submit() // nothing finished: the registry outgrows the bound
	want(1, 4, 5, 6, 7)
	finish(5)
	submit()
	want(1, 4, 6, 7, 8)
	finish(1, 4, 8)
	submit()
	want(6, 7, 8, 9)
}
