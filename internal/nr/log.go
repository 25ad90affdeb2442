// Package nr implements node replication ("NR", §4.1 of the paper):
// the log-based shared-memory synchronization mechanism NrOS uses to
// turn sequential kernel data structures into linearizable concurrent
// ones with good multi-core scalability.
//
// A sequential data structure is replicated once per NUMA node. All
// mutating operations are appended to a shared operation log and applied
// to every replica in log order; reads execute against the local replica
// after it has caught up with the log's tail at invocation time. Writes
// achieve concurrency through flat combining — one thread per replica
// (the combiner) batches the pending operations of its peers — and reads
// through a per-replica readers-writer lock.
//
// The package is the Go port of the algorithm IronSync verified (§4.3):
// the linearizability obligation for NR instances is discharged by the
// checker in internal/lin, registered as VCs in obligations.go.
package nr

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/verified-os/vnros/internal/obs"
)

// DefaultLogSize is the default number of slots in the shared log ring.
// The ring bounds one combiner pass (half of it, see Replica.combine),
// not the threads that may be pending at once, so it is sized to what a
// pass uses: half the ring is eight full MaxBatchOps submissions, or one
// op from every one of MaxThreadsPerReplica threads four times over. A
// kernel WriteOp entry is 264 bytes, so the default ring is 0.54 MB per
// instance, and an applied op's payload stays reachable only until the
// tail laps its slot 2 048 ops later.
const DefaultLogSize = 1 << 11

// entry is one slot of the shared log ring.
type entry[Wr any] struct {
	op      Wr
	replica uint32
	ctx     uint32
	// seq is idx+1 once the slot at logical index idx is fully written.
	// Because logical indices increase monotonically across ring reuse,
	// a reader waiting for index idx spins until seq == idx+1.
	seq atomic.Uint64
}

// log is the shared operation log: a ring of entries plus a reservation
// tail. Garbage collection is implicit — a producer may not reuse a slot
// until every replica has applied the entry previously in it, tracked
// via the replicas' applied-tail counters.
type log[Wr any] struct {
	slots []entry[Wr]
	mask  uint64
	tail  atomic.Uint64 // next logical index to reserve
	// head caches min(replica applied tails); producers refresh it when
	// the ring looks full.
	head atomic.Uint64
	// appliedTails are the per-replica applied-tail counters used for
	// implicit log garbage collection.
	appliedTails []*atomic.Uint64
	// helpers force lagging replicas forward; without them a replica
	// with no active threads would never apply entries and the ring
	// could never be reused (producers would deadlock on a full log).
	helpers []func(target uint64)
}

func newLog[Wr any](size int) *log[Wr] {
	if size <= 0 {
		size = DefaultLogSize
	}
	// Round up to a power of two.
	n := 1
	for n < size {
		n <<= 1
	}
	return &log[Wr]{slots: make([]entry[Wr], n), mask: uint64(n - 1)}
}

// Tail returns the current reservation tail: the linearization horizon a
// read must catch up to.
func (l *log[Wr]) Tail() uint64 { return l.tail.Load() }

// minApplied recomputes the slowest replica's applied tail.
func (l *log[Wr]) minApplied() uint64 {
	min := ^uint64(0)
	for _, t := range l.appliedTails {
		if v := t.Load(); v < min {
			min = v
		}
	}
	if min == ^uint64(0) {
		return 0
	}
	return min
}

// reserve claims n consecutive logical indices and returns the first.
func (l *log[Wr]) reserve(n uint64) uint64 {
	return l.tail.Add(n) - n
}

// waitForSpace blocks until the slot for logical index idx is reusable,
// i.e. every replica has applied index idx-ringSize (the entry
// previously occupying the slot). selfHelp lets the calling combiner
// advance its own replica — it holds its own combiner lock, so the
// generic helpers cannot do it, and without self-help a combiner whose
// own replica is the laggard would deadlock against itself.
func (l *log[Wr]) waitForSpace(idx uint64, replica uint32, selfHelp func(target uint64)) {
	ring := uint64(len(l.slots))
	if idx < ring {
		return
	}
	need := idx - ring + 1 // all replicas must have applied beyond this
	var t0 stallTimer
	for {
		if h := l.head.Load(); h >= need {
			t0.done(replica)
			return
		}
		t0.start(idx, replica)
		m := l.minApplied()
		// head only moves forward.
		for {
			h := l.head.Load()
			if m <= h || l.head.CompareAndSwap(h, m) {
				break
			}
		}
		if m >= need {
			t0.done(replica)
			return
		}
		// Entries below `need` are at least a full ring older than idx,
		// so they are all published: applying up to `need` cannot spin
		// on an unwritten slot.
		if selfHelp != nil {
			selfHelp(need)
		}
		// Help lagging replicas (possibly ones with no active threads)
		// apply up to the reclamation horizon.
		for _, help := range l.helpers {
			help(need)
		}
		runtime.Gosched()
	}
}

// stallTimer accumulates one waitForSpace stall: counted once on first
// blocked iteration, latency recorded when space frees up. Zero-cost
// (no time.Now) when the ring has room or stats are disabled.
type stallTimer struct {
	t0      time.Time
	started bool
}

func (s *stallTimer) start(idx uint64, replica uint32) {
	if s.started {
		return
	}
	s.started = true
	obs.NRLogFullStalls.Add(replica, 1)
	obs.KernelTrace.Emit(obs.KindLogStall, idx, uint64(replica))
	s.t0 = obs.Start()
}

func (s *stallTimer) done(replica uint32) {
	if s.started {
		obs.NRLogStallTime.Since(replica, s.t0)
	}
}

// publish writes the operation into slot idx and marks it readable.
func (l *log[Wr]) publish(idx uint64, op Wr, replica, ctx uint32, selfHelp func(target uint64)) {
	l.waitForSpace(idx, replica, selfHelp)
	s := &l.slots[idx&l.mask]
	s.op = op
	s.replica = replica
	s.ctx = ctx
	s.seq.Store(idx + 1)
}

// read returns the entry at logical index idx for a replica that has
// applied everything below it, spinning until the entry has been
// published. The combiner that reserved idx may itself be stalled in
// waitForSpace on this very replica's applied tail — a long apply run
// otherwise publishes its progress only when it ends — so before waiting
// the replica's progress so far is made visible: the lowest unpublished
// index then never waits on a replica that waits on it.
func (l *log[Wr]) read(idx uint64, applied *atomic.Uint64) (Wr, uint32, uint32) {
	s := &l.slots[idx&l.mask]
	if s.seq.Load() != idx+1 {
		applied.Store(idx)
		for s.seq.Load() != idx+1 {
			runtime.Gosched()
		}
	}
	return s.op, s.replica, s.ctx
}
