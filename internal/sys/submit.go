package sys

import (
	"errors"
	"sync/atomic"
)

// This file is the reaping half of the submission ring: the queue of
// batches a handle has submitted, and Batch.Wait, which carries them
// across the boundary.
//
// A batch crosses on its reaper. Submit validates a batch and queues it
// on its handle; nothing crosses until a Wait on that handle runs. Wait
// carries every batch queued before its own, and then its own, across
// in submission order on the calling goroutine, holding the handle (the
// call mutex Read and Write hold) while it does. So there is one reaper
// at a time, a handle's batches apply in the order they were submitted
// whichever of them is waited for first, and a batch nobody waits for
// crosses at the handle's next Wait.
//
// There is no drainer goroutine and no completion doorbell: no caller
// overlaps submission with other work (each submits and then waits), and
// a goroutine per batch pays for its stack on every batch.
//
// Placement: each handle's kernel handler is pinned to one core (core's
// newHandler round-robins processes over cores and registers the NR
// thread context on that core's replica), so a handle's queue is a
// per-core ring and its batches reach the NR combiner from that core.

// WaitMode names how Wait reaps a batch. WaitBlock is the one mode.
type WaitMode uint8

// WaitBlock: Wait returns once the batch has crossed, on its goroutine.
const WaitBlock WaitMode = 0

// SubmitOptions configures a submission.
type SubmitOptions struct {
	Wait WaitMode // WaitBlock, the one mode
}

// Batch lifecycle errors. Every wrong transition has one, returned
// before anything crosses.
var (
	// ErrBatchEmpty: the batch has no ops (Submit and Wait on an empty
	// batch both report it).
	ErrBatchEmpty = errors.New("sys: batch has no ops")
	// ErrBatchNotSubmitted: Wait before Submit.
	ErrBatchNotSubmitted = errors.New("sys: batch not submitted")
	// ErrBatchSubmitted: Submit called twice.
	ErrBatchSubmitted = errors.New("sys: batch already submitted")
	// ErrBatchReaped: a Wait already returned the batch (a second Wait,
	// concurrent or not, or Submit after Wait).
	ErrBatchReaped = errors.New("sys: batch already reaped")
)

// Batch lifecycle states.
const (
	batchBuilding uint32 = iota
	batchQueued
	batchDone
	batchReaped
)

// Batch is a submission: a run of ops and, once it has crossed, their
// completions. Build it with NewBatch/Add/Submit (or SubmitOpts) and
// reap it with Wait.
//
// A Batch is not safe for concurrent building; after Submit, any number
// of goroutines may Wait on it, and exactly one of them gets its
// completions.
type Batch struct {
	s   *Sys
	ops []Op

	// state is building → queued → done → reaped; past building it
	// changes under s.call, and so do comps and err.
	state atomic.Uint32
	comps []Completion
	err   error // batch-level failure
}

// NewBatch returns an empty batch bound to this handle. Add ops, then
// Submit.
func (s *Sys) NewBatch(SubmitOptions) *Batch { return &Batch{s: s} }

// Add appends ops to an unsubmitted batch (chainable). Ops added after
// Submit are discarded: the submitted run is immutable.
func (b *Batch) Add(ops ...Op) *Batch {
	if b.state.Load() == batchBuilding {
		b.ops = append(b.ops, ops...)
	}
	return b
}

// Len returns the number of ops in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Submit validates the batch and queues it on the handle; it crosses at
// the handle's next Wait. Ops and their payloads are borrowed until
// then. Misuse (empty batch, double submit, submit after Wait) and
// boundary validation failures (bad open flags, like Sys.Open) are
// reported here, before anything is queued; a validation failure is
// also the batch's Wait error.
func (b *Batch) Submit() error {
	s := b.s
	s.call.Lock()
	defer s.call.Unlock()
	switch {
	case b.state.Load() == batchReaped:
		return ErrBatchReaped
	case len(b.ops) == 0:
		return ErrBatchEmpty
	case b.state.Load() != batchBuilding:
		return ErrBatchSubmitted
	}
	for _, op := range b.ops {
		if e := op.validate(); e != EOK {
			b.err = e
			b.state.Store(batchDone)
			return e
		}
	}
	b.state.Store(batchQueued)
	s.ring = append(s.ring, b)
	return nil
}

// Wait returns the batch's completions in submission order, carrying it
// across first if it has not crossed: with it, every batch the handle
// queued before it, in order. A non-nil error is a batch-level failure
// (boundary error or lifecycle misuse); per-op failures live in the
// completions. Exactly one Wait returns a batch: every other one, before
// or concurrent with it, gets ErrBatchReaped.
func (b *Batch) Wait() ([]Completion, error) {
	s := b.s
	s.call.Lock()
	defer s.call.Unlock()
	switch b.state.Load() {
	case batchBuilding:
		if len(b.ops) == 0 {
			return nil, ErrBatchEmpty
		}
		return nil, ErrBatchNotSubmitted
	case batchReaped:
		return nil, ErrBatchReaped
	case batchQueued:
		s.reapThrough(b)
	}
	b.state.Store(batchReaped)
	return b.comps, b.err
}

// reapThrough carries the handle's queued batches across, oldest first,
// up to and including b (s.call held).
func (s *Sys) reapThrough(b *Batch) {
	n := 0
	for n < len(s.ring) {
		q := s.ring[n]
		n++
		comps, errno := s.crossBatch(q.ops)
		q.comps = comps
		if errno != EOK {
			q.err = errno
		}
		q.state.Store(batchDone)
		if q == b {
			break
		}
	}
	left := copy(s.ring, s.ring[n:])
	clear(s.ring[left:])
	s.ring = s.ring[:left]
}

// SubmitOpts submits ops as one batch and returns it; reap it with
// Wait, which reports a submission error as the batch-level error. The
// ops slice is borrowed, like its payloads, until the batch is reaped.
func (s *Sys) SubmitOpts(ops []Op, opts SubmitOptions) *Batch {
	b := &Batch{s: s, ops: ops}
	_ = b.Submit() // a failed Submit is the batch's error, which Wait returns
	return b
}

// SubmitWait is the synchronous form: submit and reap, the batch-level
// error as an Errno. A batch queued on the handle before it crosses
// before it.
func (s *Sys) SubmitWait(ops []Op) ([]Completion, Errno) {
	if len(ops) == 0 {
		return nil, EOK
	}
	comps, err := s.SubmitOpts(ops, SubmitOptions{}).Wait()
	return comps, errnoOf(err)
}

// errnoOf projects a batch-level error onto the Errno surface.
func errnoOf(err error) Errno {
	if err == nil {
		return EOK
	}
	var e Errno
	if errors.As(err, &e) {
		return e
	}
	return EINVAL
}
