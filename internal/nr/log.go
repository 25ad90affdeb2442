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
// Both kinds answer in place. A read is ThreadContext.ExecuteReadInto(op
// *Rd, out *Resp): the response is written into a slot the caller owns,
// by the data structure itself when it implements InPlaceReader (the
// kernel does), so a large response is not copied back through every
// frame. A write is ThreadContext.ExecuteInto(op *Wr) *Resp: a combiner
// applies each log entry, read by reference, into its issuer's slot
// through InPlaceWriter (the kernel again), and on every other replica
// with no slot at all — that replica's answer would be read by nobody,
// so it is never composed. ExecuteRead(op) Resp and Execute(op) Resp are
// the same calls for a caller that takes the answer by value.
//
// The package is the Go port of the algorithm IronSync verified (§4.3):
// the linearizability obligation for NR instances is discharged by the
// checker in internal/lin, registered as VCs in obligations.go.
package nr

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/verified-os/vnros/internal/obs"
)

// DefaultLogSize is the default number of slots in the shared log ring.
// The ring bounds one combiner pass (half of it, see Replica.combine),
// not the threads that may be pending at once, so it is sized to what a
// pass uses: half the ring is eight full MaxBatchOps submissions, or one
// op from every one of MaxThreadsPerReplica threads four times over. A
// kernel WriteOp entry is 264 bytes, so the default ring is 0.54 MB per
// instance at boot. On a log of more than one replica, what an entry
// lends (Owner) is copied into a store its slot owns, allocated at the
// slot's first such entry and reused each time the tail laps the slot:
// a slot keeps at most SlotBytes, so an instance at the default size
// keeps at most 32 MiB of stores, and only as much of that as its
// entries have needed.
const DefaultLogSize = 1 << 11

// SlotBytes bounds the store a log slot keeps (SlotStore): an entry
// that lends more — its vector's entries at their size and its bytes —
// is copied into a store of its own, which is dropped once the slot is
// lapped. A descriptor run of 17 kernel entries and 4 KiB of writes is
// 8.3 KiB.
const SlotBytes = 16 << 10

// Owner is implemented, through its pointer, by a log entry type whose
// entries may reference memory their issuer lends only until its call
// returns — a vector it reuses for its next call — while a replica that
// lags applies the entry later. On a log with more than one replica,
// publish makes the slot's copy of such an entry reference copies in a
// store the slot owns instead. The slot is reused only once every
// replica has applied its entry (waitForSpace), and so is the store:
// that is the rule that lets an issuer reuse what it lends. Anything the
// entry does not report is left where it is, read by reference — in
// particular a destination only the issuer's apply writes, which must
// be the issuer's own.
type Owner[Wr any] interface {
	// Lent is how much lent memory the entry references: the length of
	// a vector of entries, words (8-byte scalars, Words) and bytes
	// (Bytes, String); zero for all three when it references none, and
	// then Own is not called.
	Lent() (entries, words, bytes int)
	// Own copies the lent memory into st (SlotStore.Vector, Words,
	// SlotStore.Bytes, SlotStore.String) and points the entry at the
	// copies. st has room for exactly what Lent reported.
	Own(st *SlotStore[Wr])
}

// SlotStore is the storage a log slot owns for what its entry lends
// (Owner): a vector of entries, words and bytes. It is allocated at the
// slot's first entry that lends anything — nothing at boot — and reused,
// grown where an entry needs more, every time the slot is.
type SlotStore[Wr any] struct {
	vec   []Wr
	words []uint64
	buf   []byte
}

// Vector copies v into the store and returns the copy, by a pointer the
// store owns. An entry has one vector.
func (st *SlotStore[Wr]) Vector(v []Wr) *[]Wr {
	st.vec = append(st.vec[:0], v...)
	return &st.vec
}

// Bytes copies b into the store and returns the copy; nil stays nil.
func (st *SlotStore[Wr]) Bytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	n := len(st.buf)
	st.buf = append(st.buf, b...)
	return st.buf[n:len(st.buf):len(st.buf)]
}

// String copies s into the store's bytes and returns the copy, a string
// over them; "" stays "".
func (st *SlotStore[Wr]) String(s string) string {
	if s == "" {
		return ""
	}
	n := len(st.buf)
	st.buf = append(st.buf, s...)
	return unsafe.String(&st.buf[n], len(s))
}

// Words copies v, a vector of 8-byte scalars, into st's words and returns
// the copy; an empty vector comes back nil. (A function, not a method:
// Go methods take no type parameters.)
func Words[Wr any, T ~uint64](st *SlotStore[Wr], v []T) []T {
	if len(v) == 0 {
		return nil
	}
	n := len(st.words)
	for _, w := range v {
		st.words = append(st.words, uint64(w))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&st.words[n])), len(v))
}

// reserve empties the store for an entry that lends the given vector
// length, words and bytes. A store too small for it grows to the larger
// of what it had and what the entry needs, or to exactly the entry's
// needs where that larger store would pass SlotBytes.
func (st *SlotStore[Wr]) reserve(entries, words, bytes int) {
	if cap(st.vec) < entries || cap(st.words) < words || cap(st.buf) < bytes {
		v, w, b := max(cap(st.vec), entries), max(cap(st.words), words), max(cap(st.buf), bytes)
		if slotSize[Wr](v, w, b) > SlotBytes {
			v, w, b = entries, words, bytes
		}
		if cap(st.vec) != v {
			st.vec = make([]Wr, 0, v)
		}
		if cap(st.words) != w {
			st.words = make([]uint64, 0, w)
		}
		if cap(st.buf) != b {
			st.buf = make([]byte, 0, b)
		}
	}
	st.vec, st.words, st.buf = st.vec[:0], st.words[:0], st.buf[:0]
}

// slotSize is the size of a store for a vector of entries, words and
// bytes.
func slotSize[Wr any](entries, words, bytes int) int {
	var zero Wr
	return entries*int(unsafe.Sizeof(zero)) + words*8 + bytes
}

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
	// stores are the slots' stores (Owner), indexed like slots: the
	// vector is allocated at the log's first entry that lends anything,
	// and a slot's store at the slot's first. A slot's element is touched
	// only by whoever is publishing into the slot.
	stores atomic.Pointer[[]*SlotStore[Wr]]
	// lends is whether publish copies what an entry lends: its type is
	// an Owner and the log has more than one replica. With one, the
	// issuer's own apply is the entry's only one, done before its call
	// returns, so nothing outlives the loan. Fixed when the log is made.
	lends bool
}

func newLog[Wr any](size, replicas int) *log[Wr] {
	if size <= 0 {
		size = DefaultLogSize
	}
	// Round up to a power of two.
	n := 1
	for n < size {
		n <<= 1
	}
	_, owner := any((*Wr)(nil)).(Owner[Wr])
	return &log[Wr]{slots: make([]entry[Wr], n), mask: uint64(n - 1), lends: owner && replicas > 1}
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

// publish copies the operation into slot idx — what it lends into the
// slot's store (Owner) — and marks it readable.
func (l *log[Wr]) publish(idx uint64, op *Wr, replica, ctx uint32, selfHelp func(target uint64)) {
	l.waitForSpace(idx, replica, selfHelp)
	s := &l.slots[idx&l.mask]
	s.op = *op
	if l.lends {
		o := any(&s.op).(Owner[Wr])
		if n, w, b := o.Lent(); n > 0 || w > 0 || b > 0 {
			o.Own(l.store(idx, n, w, b))
		}
	}
	s.replica = replica
	s.ctx = ctx
	s.seq.Store(idx + 1)
}

// store returns slot idx's store, reserved for an entry that lends the
// given vector length, words and bytes — or, past SlotBytes, a store of
// the entry's own. The caller is publishing into the slot, so every
// replica has applied the entry that used the store before.
func (l *log[Wr]) store(idx uint64, entries, words, bytes int) *SlotStore[Wr] {
	if slotSize[Wr](entries, words, bytes) > SlotBytes {
		st := new(SlotStore[Wr])
		st.reserve(entries, words, bytes)
		return st
	}
	stores := l.stores.Load()
	if stores == nil {
		v := make([]*SlotStore[Wr], len(l.slots))
		l.stores.CompareAndSwap(nil, &v)
		stores = l.stores.Load()
	}
	st := (*stores)[idx&l.mask]
	if st == nil {
		st = new(SlotStore[Wr])
		(*stores)[idx&l.mask] = st
	}
	st.reserve(entries, words, bytes)
	return st
}

// read returns the entry at logical index idx for a replica that has
// applied everything below it, spinning until the entry has been
// published. The op is returned by reference, where it sits in the
// ring: the slot is not reused until every replica has applied it, and
// this replica is still applying it. The combiner that reserved idx may itself be stalled in
// waitForSpace on this very replica's applied tail — a long apply run
// otherwise publishes its progress only when it ends — so before waiting
// the replica's progress so far is made visible: the lowest unpublished
// index then never waits on a replica that waits on it.
func (l *log[Wr]) read(idx uint64, applied *atomic.Uint64) (*Wr, uint32, uint32) {
	s := &l.slots[idx&l.mask]
	if s.seq.Load() != idx+1 {
		applied.Store(idx)
		for s.seq.Load() != idx+1 {
			runtime.Gosched()
		}
	}
	return &s.op, s.replica, s.ctx
}
