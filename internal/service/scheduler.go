package service

import (
	"errors"
	"fmt"
	"sync"
)

// ErrQueueFull rejects a submission when the bounded job queue has no
// room; clients should retry later (the API maps it to 503).
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed rejects submissions to a server that is shutting down.
var ErrClosed = errors.New("service: server closed")

// scheduler owns the job registry and the bounded queue feeding a fixed
// pool of runner goroutines — the multi-tenant heart of the daemon: at
// most maxRunning jobs execute concurrently (each itself capped to the
// per-job worker limit by the server), the queue bounds admission, and
// finished jobs are retained up to maxJobs for status/result reads
// before the oldest are evicted.
type scheduler struct {
	queue   chan *job
	stop    chan struct{}
	wg      sync.WaitGroup
	runJob  func(*job)
	maxJobs int

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // insertion order, for eviction
	nextID int
	closed bool
}

func newScheduler(queueCap, runners, maxJobs int, runJob func(*job)) *scheduler {
	s := &scheduler{
		queue:   make(chan *job, queueCap),
		stop:    make(chan struct{}),
		runJob:  runJob,
		maxJobs: maxJobs,
		jobs:    make(map[string]*job),
	}
	for i := 0; i < runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

func (s *scheduler) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// newID allocates the next job identifier.
func (s *scheduler) newID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("j%06d", s.nextID)
}

// submit enqueues the job and registers it, both under s.mu, so a
// client that immediately GETs the returned id finds it and a full
// queue leaves nothing behind. The send never blocks (runners never take
// s.mu); a full queue reports ErrQueueFull.
func (s *scheduler) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.queue <- j:
	default:
		return ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return nil
}

// evictLocked trims the oldest finished jobs beyond the retention
// bound. Live (queued/running) jobs are never evicted, so the registry
// can transiently exceed maxJobs under extreme concurrency. The walk
// stops where the bound holds again: submit runs it under s.mu, and a
// walk over the whole registry on every submit made s.mu the service's
// bottleneck on cache hits.
func (s *scheduler) evictLocked() {
	if len(s.jobs) <= s.maxJobs {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		if len(s.jobs) <= s.maxJobs {
			s.order = append(kept, s.order[i:]...)
			return
		}
		j := s.jobs[id]
		j.mu.Lock()
		done := j.state == StateDone
		j.mu.Unlock()
		if done {
			delete(s.jobs, id)
		} else {
			kept = append(kept, id)
		}
	}
	s.order = kept
}

// lookup returns a registered job.
func (s *scheduler) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// counts tallies the registry by state.
func (s *scheduler) counts() (queued, running, done int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		default:
			done++
		}
		j.mu.Unlock()
	}
	return queued, running, done
}

// close stops admission, cancels every live job, and waits for the
// runners to drain. Queued jobs finish as cancelled without running.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Walk the insertion-order slice, not the map: cancellation order is
	// observable (events, logs), and map order would shuffle it per run.
	jobs := make([]*job, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()

	for _, j := range jobs {
		j.requestCancel()
	}
	close(s.stop)
	s.wg.Wait()
	// Anything still sitting in the queue was cancelled above; mark any
	// stragglers enqueued between the snapshot and the closed flag.
	for {
		select {
		case j := <-s.queue:
			j.requestCancel()
		default:
			return
		}
	}
}
