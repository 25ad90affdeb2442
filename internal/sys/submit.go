package sys

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/sched"
)

// This file is the completion-driven half of the submission ring: the
// per-core submission queue, the CQ doorbell, and the redesigned async
// API (SubmitOptions, Batch.Wait/WaitN, completion callbacks).
//
// Placement: each Sys handle's kernel handler is pinned to one core
// (core's newHandler round-robins processes over cores and registers
// the NR thread context on that core's replica), so the submission ring
// embedded in the Sys handle *is* a per-core ring — batches queue up
// core-locally and only the ring's drainer crosses into the NR combiner.
// Submission never migrates to another core before the combiner sees it.
//
// Reaping: completions post through a CQ doorbell built on
// sched.WaitQueue — the same lost-wakeup-free prepare/re-check/park
// discipline the futex path and the socket receive doorbell use. A
// blocking Wait parks the calling thread; the drainer rings the bell as
// it posts each completion chunk, so the waiter is event-woken, never
// polling. WaitSpin busy-polls for latency-critical callers that would
// rather burn the core than take a wakeup, and WaitPoll never waits at
// all (Wait/WaitN report ErrBatchPending while the batch is in flight).

// WaitMode selects how a batch's completions are reaped.
type WaitMode uint8

const (
	// WaitBlock parks the waiting thread on the batch's CQ doorbell and
	// is woken by completion posting — the default: no busy-spin, the
	// core is free for other work while the kernel drains the batch.
	WaitBlock WaitMode = iota
	// WaitSpin busy-polls the completion count, yielding the processor
	// between checks. Lowest wake-to-return latency, burns the core.
	WaitSpin
	// WaitPoll never waits: Wait/WaitN return ErrBatchPending (with the
	// completions posted so far) while the batch is in flight. For
	// latency-critical event loops that interleave reaping with work.
	WaitPoll
)

// SubmitOptions configures a submission.
type SubmitOptions struct {
	// Wait is the reap discipline for Wait/WaitN (default WaitBlock).
	Wait WaitMode
	// OnComplete, when set, is invoked exactly once from the ring's
	// drainer after the batch completes — every completion posted, or a
	// batch-level failure (the error mirrors what Wait would return).
	// The slice aliases the batch's completion queue; treat it as
	// read-only.
	OnComplete func([]Completion, error)
}

// Batch misuse and flow-control errors. Misuses fail deterministically:
// every wrong lifecycle transition has one defined error, checked
// before any waiting happens.
var (
	// ErrBatchEmpty: the batch has no ops (Submit and Wait on an empty
	// batch both report it).
	ErrBatchEmpty = errors.New("sys: batch has no ops")
	// ErrBatchNotSubmitted: Wait before Submit.
	ErrBatchNotSubmitted = errors.New("sys: batch not submitted")
	// ErrBatchSubmitted: Submit called twice.
	ErrBatchSubmitted = errors.New("sys: batch already submitted")
	// ErrBatchReaped: the batch was already reaped by Wait (double Wait,
	// or Submit after Wait).
	ErrBatchReaped = errors.New("sys: batch already reaped")
	// ErrBatchBusy: two goroutines raced into Wait/WaitN on the same
	// batch; exactly one wins, the loser gets this.
	ErrBatchBusy = errors.New("sys: concurrent wait on the same batch")
	// ErrBatchPending (WaitPoll only): the batch is still in flight.
	ErrBatchPending = errors.New("sys: batch still in flight")
	// ErrWaitRange: WaitN called with n < 0 or n > len(ops).
	ErrWaitRange = errors.New("sys: wait count out of range")
)

// Batch lifecycle states.
const (
	batchBuilding uint32 = iota
	batchSubmitted
	batchDone
)

// park-hook stages, for the ring-wait-no-lost-wakeup interleaving sweep
// (ring_obligations.go): the two windows a completion post can race
// into.
const (
	parkStagePrepared = iota // doorbell ticket taken, condition not yet re-checked
	parkStageParking         // re-check said "not ready", about to park
)

// ringChunk bounds the ops per boundary crossing when the drainer
// serves a batch: completions post (and the doorbell rings) after every
// chunk, so WaitN reapers make progress on long batches instead of
// waiting for the last op. Batches up to ringChunk ops still cross the
// boundary exactly once. A descriptor run that straddles two chunks is
// two transitions, each witnessed and checked on its own — sound because
// a batch is specified as the sequential composition of its ops (the
// batch-refines-sequential obligation), so any chunking of that
// composition satisfies the same per-op relations.
const ringChunk = 64

// subRing is the per-core submission queue: batches a process submits
// queue here, in order, and one drainer goroutine (spawned on demand,
// exiting when the queue empties) carries them across the boundary. One
// submission stream per Sys handle, and each handle is pinned to one
// core, so nothing crosses cores before the NR combiner.
type subRing struct {
	mu      sync.Mutex
	q       []*Batch
	running bool
}

// Batch is an in-flight submission: a submission-queue segment plus its
// completion queue and CQ doorbell. Build it with NewBatch/Add/Submit
// (or the Submit/SubmitOpts conveniences) and reap it with Wait/WaitN.
//
// A Batch is not safe for concurrent building; after Submit, any number
// of goroutines may attempt to reap it but exactly one Wait succeeds.
type Batch struct {
	s          *Sys
	mode       WaitMode
	onComplete func([]Completion, error)
	ops        []Op

	state  atomic.Uint32 // batchBuilding → batchSubmitted → batchDone
	posted atomic.Uint64 // completions posted so far (release-stores)
	comps  []Completion  // filled [0, posted) by the drainer
	err    error         // batch-level failure; read only after batchDone
	cq     *sched.WaitQueue

	waiting atomic.Bool // one reaper at a time
	reaped  atomic.Bool // a Wait consumed the batch

	parkHook func(stage int) // test/VC instrumentation of the park window
}

// NewBatch returns an empty batch bound to this handle's submission
// ring. Add ops, then Submit.
func (s *Sys) NewBatch(opts SubmitOptions) *Batch {
	return &Batch{s: s, mode: opts.Wait, onComplete: opts.OnComplete, cq: sched.NewWaitQueue()}
}

// Add appends ops to an unsubmitted batch (chainable). Ops added after
// Submit are discarded: the submitted segment is immutable.
func (b *Batch) Add(ops ...Op) *Batch {
	if b.state.Load() == batchBuilding {
		b.ops = append(b.ops, ops...)
	}
	return b
}

// Len returns the number of ops in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Submit validates the batch and enqueues it on the handle's per-core
// submission ring; the drainer crosses the boundary asynchronously. Ops
// and their payloads are borrowed until the batch completes. Misuse
// (empty batch, double submit, submit after Wait) and boundary
// validation failures (bad open flags, like Sys.Open) are reported
// here, before anything is enqueued.
func (b *Batch) Submit() error {
	if err := b.prepare(); err != nil {
		return err
	}
	b.s.ringEnqueue(b)
	return nil
}

// prepare runs the building→submitted transition: lifecycle checks,
// boundary validation, completion-queue allocation.
func (b *Batch) prepare() error {
	if b.reaped.Load() {
		return ErrBatchReaped
	}
	if len(b.ops) == 0 {
		return ErrBatchEmpty
	}
	if !b.state.CompareAndSwap(batchBuilding, batchSubmitted) {
		return ErrBatchSubmitted
	}
	for _, op := range b.ops {
		if e := op.validate(); e != EOK {
			b.finish(e)
			return e
		}
	}
	b.comps = make([]Completion, len(b.ops))
	return nil
}

// finish marks the batch complete (err != nil: batch-level failure),
// rings the doorbell, and fires the completion callback.
func (b *Batch) finish(errno Errno) {
	if errno != EOK {
		b.err = errno
	}
	b.state.Store(batchDone)
	b.cq.Wake()
	if b.onComplete != nil {
		b.onComplete(b.comps[:b.posted.Load()], b.err)
	}
}

// Done reports whether the batch has completed — the poll-mode fast
// check (no claim taken, callable from any goroutine).
func (b *Batch) Done() bool { return b.state.Load() == batchDone }

// Wait reaps the whole completion queue: it waits (per the batch's
// WaitMode) until every completion has posted, consumes the batch, and
// returns the completions in submission order. A non-nil error is a
// batch-level failure (boundary error or lifecycle misuse) — per-op
// failures live in the completions. Exactly one Wait can consume a
// batch: a second Wait returns ErrBatchReaped, a concurrent one
// ErrBatchBusy. Under WaitPoll, Wait returns ErrBatchPending (without
// consuming the batch) while the kernel is still draining it.
func (b *Batch) Wait() ([]Completion, error) { return b.wait(len(b.ops), true) }

// WaitN waits until at least n completions have posted and returns
// everything posted so far (at least n entries, in submission order)
// without consuming the batch — partial reaping for pipelines that
// start work on early completions while the kernel drains the rest.
// Call Wait (or WaitN(Len())) for the full queue.
func (b *Batch) WaitN(n int) ([]Completion, error) { return b.wait(n, false) }

func (b *Batch) wait(n int, reap bool) ([]Completion, error) {
	if b.reaped.Load() {
		return nil, ErrBatchReaped
	}
	if b.state.Load() == batchBuilding {
		if len(b.ops) == 0 {
			return nil, ErrBatchEmpty
		}
		return nil, ErrBatchNotSubmitted
	}
	if n < 0 || n > len(b.ops) {
		return nil, ErrWaitRange
	}
	if !b.waiting.CompareAndSwap(false, true) {
		return nil, ErrBatchBusy
	}
	defer b.waiting.Store(false)
	if b.reaped.Load() { // lost the race to a Wait that just finished
		return nil, ErrBatchReaped
	}

	core := b.s.core
	for !b.readyFor(n) {
		switch b.mode {
		case WaitSpin:
			obs.RingWaitSpins.Add(core, 1)
			runtime.Gosched()
		case WaitPoll:
			return b.comps[:b.posted.Load()], ErrBatchPending
		default: // WaitBlock: prepare → re-check → park on the CQ doorbell
			ticket := b.cq.Prepare()
			if b.parkHook != nil {
				b.parkHook(parkStagePrepared)
			}
			if b.readyFor(n) {
				continue
			}
			if b.parkHook != nil {
				b.parkHook(parkStageParking)
			}
			obs.RingWaitParks.Add(core, 1)
			b.cq.Wait(ticket)
			obs.RingWaitWakes.Add(core, 1)
		}
	}

	if reap {
		b.reaped.Store(true)
	}
	comps := b.comps[:b.posted.Load()]
	if b.state.Load() == batchDone && b.err != nil {
		return comps, b.err
	}
	return comps, nil
}

// readyFor reports whether a wait for n completions can return: enough
// posted, or the batch finished (completion or batch-level failure).
func (b *Batch) readyFor(n int) bool {
	return b.posted.Load() >= uint64(n) || b.state.Load() == batchDone
}

// ringEnqueue queues a prepared batch on the per-core submission ring,
// starting the drainer if it is idle. The drainer exits when the queue
// empties (no idle goroutine per process), and a new submission
// restarts it.
func (s *Sys) ringEnqueue(b *Batch) {
	s.ring.mu.Lock()
	s.ring.q = append(s.ring.q, b)
	if !s.ring.running {
		s.ring.running = true
		go s.ringDrain()
	}
	s.ring.mu.Unlock()
}

// ringDrain serves the submission queue in order: one batch at a time,
// one goroutine per ring, so a process's batches execute in submission
// order and the boundary crossing always happens from the handle's own
// (per-core) submission stream. The ring's running flag is set for it.
func (s *Sys) ringDrain() {
	for {
		s.ring.mu.Lock()
		if len(s.ring.q) == 0 {
			s.ring.running = false
			s.ring.mu.Unlock()
			return
		}
		b := s.ring.q[0]
		s.ring.q = s.ring.q[1:]
		s.ring.mu.Unlock()
		s.drain(b)
	}
}

// drain carries one batch across the boundary in ringChunk-sized
// submission-queue segments, posting completions and ringing the CQ
// doorbell after each chunk — the combiner-drain side of the doorbell
// protocol. A batch-level failure stops the drain; completions already
// posted stay readable.
func (s *Sys) drain(b *Batch) {
	n := len(b.ops)
	for off := 0; off < n; off += ringChunk {
		end := off + ringChunk
		if end > n {
			end = n
		}
		comps, errno := s.submitChunk(b.ops[off:end])
		copy(b.comps[off:], comps)
		if errno != EOK {
			b.posted.Store(uint64(off + len(comps)))
			b.finish(errno)
			return
		}
		b.posted.Store(uint64(end))
		if end < n {
			obs.RingChunksPosted.Add(s.core, 1)
			b.cq.Wake()
		}
	}
	b.finish(EOK)
}

// SubmitOpts enqueues ops with the given options (wait mode, completion
// callback) and crosses the boundary asynchronously; reap the returned
// Batch with Wait. Submission errors are deferred to Wait, which
// reports them as the batch-level error.
func (s *Sys) SubmitOpts(ops []Op, opts SubmitOptions) *Batch {
	b := s.NewBatch(opts).Add(ops...)
	if len(ops) == 0 {
		return b // Wait reports ErrBatchEmpty
	}
	_ = b.Submit() // a failed Submit finishes the batch; Wait reports it
	return b
}

// SubmitWait is the synchronous form: submit and reap. It keeps the
// ring's order like any submission — a batch queued on the handle before
// it executes before it — and skips the ring handoff only when nothing
// overlaps: with the ring idle and empty, the calling goroutine claims
// it and carries the batch across itself, and a batch submitted
// meanwhile queues behind it and is handed to a drainer after. Otherwise
// the batch is enqueued and waited for. Kept with the PR-2 signature —
// the batch-level error surfaces as an Errno — as a thin wrapper over
// the new API.
func (s *Sys) SubmitWait(ops []Op) ([]Completion, Errno) {
	if len(ops) == 0 {
		return nil, EOK
	}
	b := s.NewBatch(SubmitOptions{}).Add(ops...)
	if err := b.prepare(); err != nil {
		return nil, errnoOf(err)
	}
	s.ring.mu.Lock()
	if s.ring.running || len(s.ring.q) > 0 {
		s.ring.mu.Unlock()
		s.ringEnqueue(b)
	} else {
		s.ring.running = true
		s.ring.mu.Unlock()
		s.drain(b)
		s.ring.mu.Lock()
		if len(s.ring.q) > 0 {
			go s.ringDrain()
		} else {
			s.ring.running = false
		}
		s.ring.mu.Unlock()
	}
	comps, err := b.Wait()
	return comps, errnoOf(err)
}

// errnoOf projects a batch-level error onto the legacy Errno surface.
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
