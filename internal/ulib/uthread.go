package ulib

import (
	"errors"
	"fmt"
	"sync"
)

// UScheduler is the user-level thread scheduler (NrOS provides one in
// user space, §4.1): cooperative green threads multiplexed onto the
// caller of Run. Threads yield explicitly (or implicitly in Park), and
// the scheduler round-robins runnable threads until all have finished.
//
// Implementation note: each green thread is backed by a goroutine, but
// exactly one runs at a time — the scheduler hands a single execution
// token around, which models a user-level scheduler faithfully
// (run-until-yield, explicit context switch points).
//
// The token is also why Park takes no commit function (the shape Go's
// gopark has): a preemptive runtime needs one to close the window
// between "checked the condition" and "parked", but here nothing else
// runs between a thread's check and its Park, so check-then-Park is
// already atomic. The limit of the model: a thread that blocks in the
// kernel (Mutex.Lock, Semaphore.Acquire, Cond.Wait) blocks while holding
// the token, and with it every thread of its scheduler.
type UScheduler struct {
	mu      sync.Mutex
	ready   []*UThread
	all     map[int]*UThread
	nextID  int
	running bool
}

// UThread is one green thread.
type UThread struct {
	ID   int
	s    *UScheduler
	wake chan struct{}
	// sliceDone is closed by the thread when it relinquishes the CPU;
	// the scheduler creates a fresh one before each dispatch.
	sliceDone chan struct{}
	done      bool
	// parked marks a thread waiting on Park (absent from ready queue).
	parked bool
	// joiners are threads parked in Join on this thread.
	joiners []*UThread
}

// ErrSchedulerRunning reports a nested Run call.
var ErrSchedulerRunning = errors.New("ulib: scheduler already running")

// NewUScheduler returns an empty scheduler.
func NewUScheduler() *UScheduler {
	return &UScheduler{all: make(map[int]*UThread)}
}

// Spawn creates a green thread executing fn. fn receives its own
// UThread for yielding, parking and spawning.
func (s *UScheduler) Spawn(fn func(t *UThread)) *UThread {
	s.mu.Lock()
	t := &UThread{ID: s.nextID, s: s, wake: make(chan struct{}, 1)}
	s.nextID++
	s.all[t.ID] = t
	s.ready = append(s.ready, t)
	s.mu.Unlock()

	go func() {
		<-t.wake // wait until first scheduled
		fn(t)
		s.exit(t)
	}()
	return t
}

// Run drives the scheduler until every thread has finished. It must be
// called from exactly one goroutine.
func (s *UScheduler) Run() error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return ErrSchedulerRunning
	}
	s.running = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running = false
		s.mu.Unlock()
	}()

	for {
		s.mu.Lock()
		if len(s.ready) == 0 {
			// Either done, or deadlocked with parked threads.
			var parked int
			for _, t := range s.all {
				if !t.done {
					parked++
				}
			}
			s.mu.Unlock()
			if parked > 0 {
				return fmt.Errorf("ulib: deadlock: %d threads parked with empty run queue", parked)
			}
			return nil
		}
		t := s.ready[0]
		s.ready = s.ready[1:]
		s.mu.Unlock()

		// Hand the token to t, wait for it to yield/park/exit. The
		// rendezvous channel must exist before the thread runs.
		slice := make(chan struct{})
		t.sliceDone = slice
		t.wake <- struct{}{}
		<-slice
	}
}

// Yield puts the thread at the back of the run queue and switches to
// the scheduler.
func (t *UThread) Yield() {
	s := t.s
	s.mu.Lock()
	s.ready = append(s.ready, t)
	s.mu.Unlock()
	t.switchOut()
	<-t.wake
}

// Park blocks the thread until Unpark.
func (t *UThread) Park() {
	s := t.s
	s.mu.Lock()
	t.parked = true
	s.mu.Unlock()
	t.switchOut()
	<-t.wake
}

// Unpark makes a parked thread runnable again. Unparking a non-parked
// thread is a no-op (matching futex-style wakeups).
func (t *UThread) Unpark(target *UThread) {
	s := t.s
	s.mu.Lock()
	if target.parked && !target.done {
		target.parked = false
		s.ready = append(s.ready, target)
	}
	s.mu.Unlock()
}

// Join parks until target finishes.
func (t *UThread) Join(target *UThread) {
	s := t.s
	s.mu.Lock()
	if target.done {
		s.mu.Unlock()
		return
	}
	target.joiners = append(target.joiners, t)
	t.parked = true
	s.mu.Unlock()
	t.switchOut()
	<-t.wake
}

// Spawn lets a running thread create a sibling.
func (t *UThread) Spawn(fn func(*UThread)) *UThread { return t.s.Spawn(fn) }

// exit marks t finished and wakes joiners.
func (s *UScheduler) exit(t *UThread) {
	s.mu.Lock()
	t.done = true
	for _, j := range t.joiners {
		j.parked = false
		s.ready = append(s.ready, j)
	}
	t.joiners = nil
	s.mu.Unlock()
	t.switchOut()
}

// switchOut signals the scheduler that this thread's slice ended. The
// sliceDone field is written only by the scheduler before waking the
// thread (ordered by the wake channel) and closed exactly once per
// slice here; writing it from the thread would race with the
// scheduler's next-slice assignment.
func (t *UThread) switchOut() {
	close(t.sliceDone)
}
