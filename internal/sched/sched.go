// Package sched implements the kernel scheduler — "a scheduler (to run
// processes)" from the paper's §1 component list. The run queue is a
// sequential data structure (per-priority FIFO queues) designed for NR
// replication (§4.1): all mutating operations are deterministic, and a
// VC replicates it through NR. No kernel replica holds one: core places
// processes on cores round-robin.
//
// The spec (sched_spec.go) defines the abstract scheduling contract:
// every thread is in exactly one state, ready threads of the highest
// occupied priority are dispatched FIFO (so no ready thread starves
// behind its own priority class), and blocked threads only run after an
// explicit wake.
package sched

import (
	"errors"
	"fmt"

	"github.com/verified-os/vnros/internal/obs"
)

// TID is a thread identifier.
type TID uint64

// Priority is a scheduling priority; 0 is highest.
type Priority uint8

// NumPriorities is the number of priority classes.
const NumPriorities = 4

// State is a thread's scheduling state.
type State uint8

// Thread states.
const (
	StateReady State = iota
	StateRunning
	StateBlocked
	StateExited
)

func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateExited:
		return "exited"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Errors.
var (
	ErrNoThread   = errors.New("sched: no such thread")
	ErrBadState   = errors.New("sched: invalid state transition")
	ErrNoRunnable = errors.New("sched: no runnable thread")
	ErrExists     = errors.New("sched: thread already exists")
)

// TCB is a thread control block.
type TCB struct {
	TID      TID
	Priority Priority
	State    State
	// Core is the core currently running the thread (valid when
	// State == StateRunning).
	Core int
	// Runs counts dispatches, used by the fairness obligations.
	Runs uint64
}

// RunQueue is the sequential scheduler state.
type RunQueue struct {
	threads map[TID]*TCB
	queues  [NumPriorities][]TID // FIFO per priority, ready threads only

	// obsShard stripes this instance's kstat updates (one RunQueue per
	// kernel replica; replicas apply concurrently). Note the sched.*
	// kstats are apply-side: with R replicas each dispatch is counted R
	// times — see the internal/obs package comment.
	obsShard uint32
}

// NewRunQueue returns an empty scheduler.
func NewRunQueue() *RunQueue {
	return &RunQueue{threads: make(map[TID]*TCB), obsShard: obs.NextShard()}
}

// Add registers a new thread in the ready state.
func (q *RunQueue) Add(tid TID, pri Priority) error {
	if pri >= NumPriorities {
		return fmt.Errorf("%w: priority %d", ErrBadState, pri)
	}
	if _, ok := q.threads[tid]; ok {
		return fmt.Errorf("%w: %d", ErrExists, tid)
	}
	q.threads[tid] = &TCB{TID: tid, Priority: pri, State: StateReady}
	q.queues[pri] = append(q.queues[pri], tid)
	return nil
}

// Get returns a copy of the TCB.
func (q *RunQueue) Get(tid TID) (TCB, error) {
	t := q.threads[tid]
	if t == nil {
		return TCB{}, fmt.Errorf("%w: %d", ErrNoThread, tid)
	}
	return *t, nil
}

// PickNext dispatches the next ready thread onto core: the FIFO head of
// the highest occupied priority class. It transitions the thread to
// running.
func (q *RunQueue) PickNext(core int) (TID, error) {
	for p := 0; p < NumPriorities; p++ {
		if len(q.queues[p]) > 0 {
			tid := q.queues[p][0]
			q.queues[p] = q.queues[p][1:]
			t := q.threads[tid]
			t.State = StateRunning
			t.Core = core
			t.Runs++
			obs.SchedDispatches.Add(q.obsShard, 1)
			obs.KernelTrace.Emit(obs.KindDispatch, uint64(tid), uint64(core))
			return tid, nil
		}
	}
	return 0, ErrNoRunnable
}

// Yield preempts a running thread back to the tail of its ready queue
// (the timer-interrupt path).
func (q *RunQueue) Yield(tid TID) error {
	t := q.threads[tid]
	if t == nil {
		return fmt.Errorf("%w: %d", ErrNoThread, tid)
	}
	if t.State != StateRunning {
		return fmt.Errorf("%w: yield of %v thread %d", ErrBadState, t.State, tid)
	}
	t.State = StateReady
	q.queues[t.Priority] = append(q.queues[t.Priority], tid)
	obs.SchedPreempts.Add(q.obsShard, 1)
	obs.KernelTrace.Emit(obs.KindPreempt, uint64(tid), 0)
	return nil
}

// Block parks a running thread (futex wait, I/O wait).
func (q *RunQueue) Block(tid TID) error {
	t := q.threads[tid]
	if t == nil {
		return fmt.Errorf("%w: %d", ErrNoThread, tid)
	}
	if t.State != StateRunning {
		return fmt.Errorf("%w: block of %v thread %d", ErrBadState, t.State, tid)
	}
	t.State = StateBlocked
	obs.SchedBlocks.Add(q.obsShard, 1)
	return nil
}

// Wake makes a blocked thread ready (futex wake, I/O completion).
func (q *RunQueue) Wake(tid TID) error {
	t := q.threads[tid]
	if t == nil {
		return fmt.Errorf("%w: %d", ErrNoThread, tid)
	}
	if t.State != StateBlocked {
		return fmt.Errorf("%w: wake of %v thread %d", ErrBadState, t.State, tid)
	}
	t.State = StateReady
	q.queues[t.Priority] = append(q.queues[t.Priority], tid)
	obs.SchedWakes.Add(q.obsShard, 1)
	return nil
}

// Exit terminates a running thread.
func (q *RunQueue) Exit(tid TID) error {
	t := q.threads[tid]
	if t == nil {
		return fmt.Errorf("%w: %d", ErrNoThread, tid)
	}
	if t.State != StateRunning {
		return fmt.Errorf("%w: exit of %v thread %d", ErrBadState, t.State, tid)
	}
	t.State = StateExited
	return nil
}

// Reap removes an exited thread's TCB.
func (q *RunQueue) Reap(tid TID) error {
	t := q.threads[tid]
	if t == nil {
		return fmt.Errorf("%w: %d", ErrNoThread, tid)
	}
	if t.State != StateExited {
		return fmt.Errorf("%w: reap of %v thread %d", ErrBadState, t.State, tid)
	}
	delete(q.threads, tid)
	return nil
}

// SetPriority changes a thread's priority; if ready, it moves to the
// tail of the new class.
func (q *RunQueue) SetPriority(tid TID, pri Priority) error {
	if pri >= NumPriorities {
		return fmt.Errorf("%w: priority %d", ErrBadState, pri)
	}
	t := q.threads[tid]
	if t == nil {
		return fmt.Errorf("%w: %d", ErrNoThread, tid)
	}
	if t.Priority == pri {
		return nil
	}
	if t.State == StateReady {
		q.removeFromQueue(tid, t.Priority)
		q.queues[pri] = append(q.queues[pri], tid)
	}
	t.Priority = pri
	return nil
}

func (q *RunQueue) removeFromQueue(tid TID, pri Priority) {
	l := q.queues[pri]
	for i := range l {
		if l[i] == tid {
			q.queues[pri] = append(l[:i], l[i+1:]...)
			return
		}
	}
}

// Len returns the number of registered threads.
func (q *RunQueue) Len() int { return len(q.threads) }

// ReadyCount returns the number of ready threads.
func (q *RunQueue) ReadyCount() int {
	n := 0
	for p := range q.queues {
		n += len(q.queues[p])
	}
	return n
}

// Each calls f with every TCB by value, in no particular order, until f
// returns false: Snapshot without the map, for a caller that counts or
// searches. f may change a thread's state but must not add or reap one.
func (q *RunQueue) Each(f func(TID, TCB) bool) {
	for tid, t := range q.threads {
		if !f(tid, *t) {
			return
		}
	}
}

// Snapshot returns all TCBs by value (for specs and tests that keep the
// map).
func (q *RunQueue) Snapshot() map[TID]TCB {
	out := make(map[TID]TCB, len(q.threads))
	q.Each(func(tid TID, t TCB) bool {
		out[tid] = t
		return true
	})
	return out
}

// CheckInvariant validates: every ready thread appears exactly once in
// exactly its priority's queue; no non-ready thread is queued; queue
// membership and TCB state agree.
func (q *RunQueue) CheckInvariant() error {
	seen := make(map[TID]int)
	for p := range q.queues {
		for _, tid := range q.queues[p] {
			t := q.threads[tid]
			if t == nil {
				return fmt.Errorf("sched: queued thread %d has no TCB", tid)
			}
			if t.State != StateReady {
				return fmt.Errorf("sched: %v thread %d in ready queue", t.State, tid)
			}
			if t.Priority != Priority(p) {
				return fmt.Errorf("sched: thread %d (pri %d) in queue %d", tid, t.Priority, p)
			}
			seen[tid]++
			if seen[tid] > 1 {
				return fmt.Errorf("sched: thread %d queued twice", tid)
			}
		}
	}
	for tid, t := range q.threads {
		if t.State == StateReady && seen[tid] != 1 {
			return fmt.Errorf("sched: ready thread %d not queued", tid)
		}
	}
	return nil
}
