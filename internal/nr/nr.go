package nr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/obs"
)

// DataStructure is the sequential data structure being replicated. Rd
// and Wr are the read-only and mutating operation types, Resp the
// response type. Implementations need no internal synchronization — NR
// provides it — but must be deterministic: applying the same operations
// in the same order to two copies must yield equal states and responses,
// since that is what keeps replicas consistent.
type DataStructure[Rd any, Wr any, Resp any] interface {
	// DispatchRead executes a read-only operation.
	DispatchRead(op Rd) Resp
	// DispatchWrite executes a mutating operation.
	DispatchWrite(op Wr) Resp
}

// MaxThreadsPerReplica bounds the flat-combining slots per replica.
const MaxThreadsPerReplica = 256

// opState values for a thread context's pending operation.
const (
	slotEmpty uint32 = iota
	slotPending
	slotDone
)

// ThreadContext is a per-thread handle onto one replica. Each OS "core"
// registers once and then funnels its operations through the handle;
// the combiner uses the slot to pick up pending writes and deposit
// responses (flat combining).
type ThreadContext[Rd any, Wr any, Resp any] struct {
	r    *Replica[Rd, Wr, Resp]
	id   uint32
	op   Wr
	resp Resp
	st   atomic.Uint32
	// ops/resps/filled carry a multi-op submission (ExecuteBatch): when
	// ops is non-nil the slot contributes len(ops) contiguous log
	// entries instead of one, and combiners deposit responses in log
	// order at resps[filled++], marking slotDone only when the last one
	// lands. All three are written by the owner before the slotPending
	// store and otherwise touched only under r.combiner, so the same
	// release/acquire edges that protect op/resp protect them.
	ops    []Wr
	resps  []Resp
	filled uint32
	// deregistered marks a released slot (guarded by r.mu); it exists
	// only to catch double-Deregister misuse.
	deregistered bool
}

// numOps returns how many log entries the slot's pending submission
// occupies. Callers must have acquired visibility via st (slotPending)
// or r.combiner.
func (c *ThreadContext[Rd, Wr, Resp]) numOps() uint64 {
	if c.ops != nil {
		return uint64(len(c.ops))
	}
	return 1
}

// Replica is one node-local copy of the data structure plus the
// combiner machinery.
type Replica[Rd any, Wr any, Resp any] struct {
	nr *NR[Rd, Wr, Resp]
	id uint32

	// lock protects ds: readers hold RLock, the combiner holds Lock
	// while applying log entries.
	lock sync.RWMutex
	ds   DataStructure[Rd, Wr, Resp]

	// combiner serializes log application for this replica.
	combiner sync.Mutex
	// next is the slot a combiner pass starts its scan at: one past the
	// last slot the previous pass took, so a slot a bounded pass left
	// pending is first in line for the next one. Guarded by combiner.
	next int

	// applied is the replica's applied tail: all log entries below it
	// have been executed against ds.
	applied atomic.Uint64

	mu   sync.Mutex // guards ctxs and free registration state
	ctxs []*ThreadContext[Rd, Wr, Resp]
	// free holds slot ids released by Deregister, reused by the next
	// Register so repeated register/deregister cycles (or unwound
	// partial Sharded registrations) cannot exhaust the thread bound.
	free []uint32

	// combined counts batched operations, for the flat-combining stats
	// exposed to the ablation bench.
	combined atomic.Uint64
	batches  atomic.Uint64
}

// NR is a node-replicated instance of a sequential data structure.
type NR[Rd any, Wr any, Resp any] struct {
	log      *log[Wr]
	replicas []*Replica[Rd, Wr, Resp]
	shardTag int
}

// Options configures an NR instance.
type Options struct {
	// Replicas is the number of replicas (NUMA nodes). Minimum 1.
	Replicas int
	// LogSize is the number of slots in the shared log ring.
	LogSize int
	// ShardTag, when non-zero, is 1+slot of this instance in the
	// per-shard kstat space (obs.ShardSlot*): combiner passes are then
	// additionally recorded under that slot, giving the combiner stats a
	// shard dimension. Zero means untagged (a standalone instance).
	ShardTag int
}

// instances counts New calls. An instance is a log ring (0.54 MB of
// kernel entries at the default size), a combiner and a set of replicas
// of the whole data structure, so how many of them a system boots — one
// on a co-located kernel, two per shard on a partitioned one — is pinned
// by tests as a count; the bytes are core.TestBootAllocationBudget's.
var instances atomic.Uint64

// Instances returns how many NR instances this process has constructed.
func Instances() uint64 { return instances.Load() }

// New creates an NR instance with one data-structure copy per replica.
// create is called once per replica and must produce identical initial
// states.
func New[Rd any, Wr any, Resp any](opts Options, create func() DataStructure[Rd, Wr, Resp]) *NR[Rd, Wr, Resp] {
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	instances.Add(1)
	n := &NR[Rd, Wr, Resp]{log: newLog[Wr](opts.LogSize), shardTag: opts.ShardTag}
	for i := 0; i < opts.Replicas; i++ {
		r := &Replica[Rd, Wr, Resp]{nr: n, id: uint32(i), ds: create()}
		n.replicas = append(n.replicas, r)
		n.log.appliedTails = append(n.log.appliedTails, &r.applied)
		n.log.helpers = append(n.log.helpers, r.helpSync)
	}
	return n
}

// helpSync opportunistically applies log entries up to target on behalf
// of another thread (log garbage collection assistance).
func (r *Replica[Rd, Wr, Resp]) helpSync(target uint64) {
	if r.applied.Load() >= target {
		return
	}
	if r.combiner.TryLock() {
		r.applyUpTo(target)
		r.combiner.Unlock()
	}
}

// NumReplicas returns the replica count.
func (n *NR[Rd, Wr, Resp]) NumReplicas() int { return len(n.replicas) }

// Replica returns replica i.
func (n *NR[Rd, Wr, Resp]) Replica(i int) *Replica[Rd, Wr, Resp] { return n.replicas[i] }

// Register attaches a new thread to replica i and returns its context.
func (n *NR[Rd, Wr, Resp]) Register(i int) (*ThreadContext[Rd, Wr, Resp], error) {
	r := n.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	active := len(r.ctxs) - len(r.free)
	if active >= MaxThreadsPerReplica {
		return nil, fmt.Errorf("nr: replica %d has %d threads registered (max %d)",
			i, active, MaxThreadsPerReplica)
	}
	// One op from every active thread must fit in half the log ring:
	// a combiner pass reserves at most that much (combine), so under
	// this bound a pass over single-op slots — the per-call syscall
	// path — always takes every pending thread and nobody waits for a
	// second pass because of the ring's size. Multi-op slots are what a
	// pass may leave for the next one.
	if (active+1)*2 > len(n.log.slots) {
		return nil, fmt.Errorf("nr: log ring (%d slots) too small for %d threads on replica %d",
			len(n.log.slots), active+1, i)
	}
	if l := len(r.free); l > 0 {
		id := r.free[l-1]
		r.free = r.free[:l-1]
		c := &ThreadContext[Rd, Wr, Resp]{r: r, id: id}
		// Copy-on-write: combiners snapshot r.ctxs under mu and then
		// walk the array unlocked, so a published backing array must
		// never be mutated — install the reused slot in a fresh copy.
		// (Append-path registrations keep the invariant naturally: they
		// never write inside the snapshotted length.) A stale snapshot
		// still holds the deregistered predecessor, which stays
		// slotEmpty forever.
		ctxs := make([]*ThreadContext[Rd, Wr, Resp], len(r.ctxs))
		copy(ctxs, r.ctxs)
		ctxs[id] = c
		r.ctxs = ctxs
		return c, nil
	}
	c := &ThreadContext[Rd, Wr, Resp]{r: r, id: uint32(len(r.ctxs))}
	r.ctxs = append(r.ctxs, c)
	return c, nil
}

// Deregister releases the thread's slot for reuse by a later Register.
// The context must be quiescent — no Execute or ExecuteRead in flight —
// and must not be used afterwards. Once Execute has returned, the
// owning replica has applied every entry tagged with this slot, so a
// successor thread reusing the id can never receive a stale response.
func (c *ThreadContext[Rd, Wr, Resp]) Deregister() {
	r := c.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.deregistered {
		panic(fmt.Sprintf("nr: double Deregister of thread %d on replica %d", c.id, r.id))
	}
	c.deregistered = true
	// The slot stays in ctxs (the combiner may hold a snapshot that
	// includes it; its state is slotEmpty forever) until reused.
	r.free = append(r.free, c.id)
}

// NumThreads returns the number of active (registered, not
// deregistered) threads on replica i.
func (n *NR[Rd, Wr, Resp]) NumThreads(i int) int {
	r := n.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ctxs) - len(r.free)
}

// MustRegister is Register, panicking on error (for tests and setup
// paths where exceeding the thread bound is a programming error).
func (n *NR[Rd, Wr, Resp]) MustRegister(i int) *ThreadContext[Rd, Wr, Resp] {
	c, err := n.Register(i)
	if err != nil {
		panic(err)
	}
	return c
}

// Execute performs a mutating operation and returns its response once
// the operation has been applied at this thread's replica. The
// linearization point is the operation's position in the shared log.
func (c *ThreadContext[Rd, Wr, Resp]) Execute(op Wr) Resp {
	c.op = op
	c.st.Store(slotPending)
	c.awaitDone()
	c.st.Store(slotEmpty)
	return c.resp
}

// awaitDone drives the combiner until this slot's pending submission
// has been applied and its response(s) deposited.
func (c *ThreadContext[Rd, Wr, Resp]) awaitDone() {
	r := c.r
	for {
		if r.combiner.TryLock() {
			r.combine()
			r.combiner.Unlock()
			if c.st.Load() == slotDone {
				return
			}
			// Our own pass filled its half ring before it reached our
			// slot and left it pending. The scan resumes after the last
			// slot taken, so each further pass takes slots closer to
			// ours: go around again.
			obs.NRExecuteRetries.Add(c.r.id, 1)
			continue
		}
		// Another thread is combining on our behalf; wait for it.
		if c.st.Load() == slotDone {
			return
		}
		runtime.Gosched()
	}
}

// maxBatchOps caps one slot's submission on any ring large enough to
// hold two of them.
const maxBatchOps = 128

// MaxBatchOps is the largest submission one slot may publish as a
// single contiguous run: maxBatchOps, or half the ring where that is
// smaller. A combiner pass reserves at most half the ring (combine), so
// the cap is what guarantees that any one pending slot fits a pass by
// itself; how many slots are pending at once no longer enters into it.
func (n *NR[Rd, Wr, Resp]) MaxBatchOps() int {
	return max(1, min(maxBatchOps, len(n.log.slots)/2))
}

// ExecuteBatch performs a vector of mutating operations as contiguous
// entries in the shared log — one combiner pass and one log reservation
// for the whole batch (amortizing the per-op reserve/publish and
// combine-pass cost) — and returns their responses in submission order.
// The ops linearize as an uninterrupted run: no foreign operation is
// applied between two ops of the same batch at any replica.
//
// Batches longer than MaxBatchOps are split into runs of that size
// (each run still contiguous) so a single slot can never reserve more
// than its share of the ring.
func (c *ThreadContext[Rd, Wr, Resp]) ExecuteBatch(ops []Wr) []Resp {
	if len(ops) == 0 {
		return nil
	}
	max := c.r.nr.MaxBatchOps()
	out := make([]Resp, 0, len(ops))
	for start := 0; start < len(ops); start += max {
		end := start + max
		if end > len(ops) {
			end = len(ops)
		}
		out = append(out, c.executeRun(ops[start:end])...)
	}
	return out
}

func (c *ThreadContext[Rd, Wr, Resp]) executeRun(ops []Wr) []Resp {
	c.ops = ops
	c.resps = make([]Resp, len(ops))
	c.filled = 0
	c.st.Store(slotPending)
	c.awaitDone()
	c.st.Store(slotEmpty)
	resps := c.resps
	c.ops, c.resps = nil, nil
	return resps
}

// ExecuteRead performs a read-only operation against the local replica
// after syncing it to the log tail observed at invocation — the NR
// linearizability condition for reads.
func (c *ThreadContext[Rd, Wr, Resp]) ExecuteRead(op Rd) Resp {
	r := c.r
	horizon := r.nr.log.Tail()
	if r.applied.Load() >= horizon {
		obs.NRReadFast.Add(r.id, 1)
	} else {
		obs.NRReadSync.Add(r.id, 1)
	}
	for r.applied.Load() < horizon {
		// Replica is behind: help by combining (which applies
		// outstanding log entries) or wait for the active combiner.
		if r.combiner.TryLock() {
			r.combine()
			r.combiner.Unlock()
		} else {
			runtime.Gosched()
		}
	}
	r.lock.RLock()
	resp := r.ds.DispatchRead(op)
	r.lock.RUnlock()
	return resp
}

// combine is the flat-combining pass. Caller holds r.combiner.
//
// It (1) collects pending operations of the threads registered on this
// replica, (2) reserves and publishes them as a contiguous batch in the
// shared log, and (3) applies every unapplied log entry — foreign and
// local — to the local data structure in log order, depositing
// responses into local slots.
//
// The half-ring invariant holds per pass: a pass reserves at most half
// the log ring, or the log could fill with a single batch and
// reclamation could not keep ahead of publication. So (1) takes pending
// slots, scanning round-robin from where the previous pass stopped,
// until the next one's ops would pass half the ring, and leaves the rest
// pending. A slot left over is not reordered against anything: it has no
// log position yet, its owner is still inside Execute, and it linearizes
// at the position a later pass reserves for it — after every op of this
// pass, which is a legal order for operations that were all concurrent.
// No slot is split (a slot's run is at most MaxBatchOps <= half the
// ring, so the first one taken always fits) and none starves (a pass
// takes at least one slot and the next scan starts after the last one
// taken, so a pending slot is reached within a bounded number of passes).
func (r *Replica[Rd, Wr, Resp]) combine() {
	t0 := obs.Start()
	r.mu.Lock()
	ctxs := r.ctxs
	r.mu.Unlock()

	lg := r.nr.log
	half := uint64(len(lg.slots)) / 2
	var batch []*ThreadContext[Rd, Wr, Resp]
	var total uint64
	start := r.next
	for k := range ctxs {
		i := (start + k) % len(ctxs)
		c := ctxs[i]
		if c.st.Load() != slotPending {
			continue
		}
		ops := c.numOps()
		if total+ops > half {
			break
		}
		batch = append(batch, c)
		total += ops
		r.next = i + 1
	}

	var last uint64
	if len(batch) > 0 {
		first := lg.reserve(total)
		// selfHelp: we hold our own combiner lock, so when the ring is
		// full and we are the laggard, apply entries ourselves. The
		// target is capped below `first`, so we never try to apply our
		// own still-unpublished batch.
		selfHelp := func(target uint64) {
			if target > first {
				target = first
			}
			r.applyUpTo(target)
		}
		idx := first
		for _, c := range batch {
			if c.ops != nil {
				// Multi-op submission: contiguous run tagged with the
				// same slot; applyUpTo deposits responses positionally.
				for j := range c.ops {
					lg.publish(idx, c.ops[j], r.id, c.id, selfHelp)
					idx++
				}
			} else {
				lg.publish(idx, c.op, r.id, c.id, selfHelp)
				idx++
			}
		}
		last = first + total
		r.batches.Add(1)
		r.combined.Add(total)
	} else {
		last = lg.Tail()
	}

	// Apply everything up to (at least) our batch's end.
	r.applyUpTo(last)

	if len(batch) > 0 {
		obs.NRBatchSize.Record(r.id, uint64(len(batch)))
	}
	obs.NRCombineLatency.Since(r.id, t0)
	if tag := r.nr.shardTag; tag > 0 {
		// The shard dimension of the combiner stats: one count + latency
		// per combine pass, indexed by the instance's shard slot.
		obs.NRShardCombine.Observe(uint64(tag-1), r.id, t0)
	}
}

// applyUpTo applies log entries [applied, target) to the local replica.
// Caller holds r.combiner.
func (r *Replica[Rd, Wr, Resp]) applyUpTo(target uint64) {
	cur := r.applied.Load()
	if cur >= target {
		return
	}
	lg := r.nr.log
	r.mu.Lock()
	ctxs := r.ctxs
	r.mu.Unlock()
	r.lock.Lock()
	for ; cur < target; cur++ {
		op, rep, ctx := lg.read(cur, &r.applied)
		resp := r.ds.DispatchWrite(op)
		if rep == r.id {
			c := ctxs[ctx]
			if c.ops != nil {
				// Entries of a multi-op submission arrive in log order,
				// which is submission order; slotDone only once the
				// whole run has been deposited, so the owner never
				// observes a partially filled response vector.
				c.resps[c.filled] = resp
				c.filled++
				if int(c.filled) == len(c.ops) {
					c.st.Store(slotDone)
				}
			} else {
				c.resp = resp
				c.st.Store(slotDone)
			}
		}
	}
	r.applied.Store(cur)
	r.lock.Unlock()
}

// Sync forces the replica to catch up with the current log tail. Used
// by checkers that compare replica states.
func (r *Replica[Rd, Wr, Resp]) Sync() {
	target := r.nr.log.Tail()
	for r.applied.Load() < target {
		if r.combiner.TryLock() {
			r.applyUpTo(target)
			r.combiner.Unlock()
		} else {
			runtime.Gosched()
		}
	}
}

// Inspect runs f with the replica's data structure under the read lock,
// after syncing to the current tail. Only checkers and tests use it.
func (r *Replica[Rd, Wr, Resp]) Inspect(f func(ds DataStructure[Rd, Wr, Resp])) {
	r.Sync()
	r.lock.RLock()
	defer r.lock.RUnlock()
	f(r.ds)
}

// CombinerStats reports flat-combining effectiveness: total batched
// operations and number of batches.
func (r *Replica[Rd, Wr, Resp]) CombinerStats() (ops, batches uint64) {
	return r.combined.Load(), r.batches.Load()
}

// Tail exposes the log tail (for tests).
func (n *NR[Rd, Wr, Resp]) Tail() uint64 { return n.log.Tail() }

// Applied exposes a replica's applied tail. Together with Tail it gives
// the replica's apply lag — the per-shard gauge the observability layer
// surfaces.
func (r *Replica[Rd, Wr, Resp]) Applied() uint64 { return r.applied.Load() }
