// Package sched holds WaitQueue, the doorbell a blocking socket receive
// parks on until its device's interrupt handler rings it. Threads are
// scheduled in user space, by internal/ulib's UScheduler.
package sched

import "sync"

// WaitQueue is a lost-wakeup-free parking primitive for completion-style
// doorbells: a waiter takes a ticket (Prepare), re-checks its condition,
// and then parks (Wait); a waker rings the bell (Wake). Any Wake after
// Prepare — even one that fires between the re-check and the park —
// advances the sequence number, so Wait returns immediately instead of
// sleeping through it. This is the same prepare/check/park shape the
// futex path uses, packaged for device-fed queues where the waker is an
// interrupt handler rather than another syscall.
type WaitQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	seq  uint64
}

// NewWaitQueue returns an empty queue.
func NewWaitQueue() *WaitQueue {
	w := &WaitQueue{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Prepare registers intent to wait and returns the current sequence
// ticket. The caller must re-check its wakeup condition between Prepare
// and Wait; Wait(ticket) then cannot miss a Wake that raced the check.
func (w *WaitQueue) Prepare() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Wait parks until the sequence has advanced past the ticket. Returns
// immediately if a Wake already fired since Prepare.
func (w *WaitQueue) Wait(ticket uint64) {
	w.mu.Lock()
	for w.seq == ticket {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// Wake advances the sequence and releases every parked waiter. Safe to
// call with no waiters (the ring is remembered via the sequence, not a
// waiter count).
func (w *WaitQueue) Wake() {
	w.mu.Lock()
	w.seq++
	w.mu.Unlock()
	w.cond.Broadcast()
}
