package nr

// Sharded partitions the state space over several independent NR
// instances, each with its own log — the paper's "NrOS shards kernel
// state into multiple NR instances and replicates them over independent
// logs" (§4.1). Operations carry a shard key; cross-shard consistency is
// the caller's concern (NrOS shards state that is naturally partitioned,
// e.g. the file-system namespace by inode).
type Sharded[Rd any, Wr any, Resp any] struct {
	shards []*NR[Rd, Wr, Resp]
}

// ShardedThread is a thread's handle across every shard.
type ShardedThread[Rd any, Wr any, Resp any] struct {
	s    *Sharded[Rd, Wr, Resp]
	ctxs []*ThreadContext[Rd, Wr, Resp]
}

// NewSharded creates n independent NR instances.
func NewSharded[Rd any, Wr any, Resp any](shards int, opts Options, create func() DataStructure[Rd, Wr, Resp]) *Sharded[Rd, Wr, Resp] {
	return NewShardedFunc(shards,
		func(int) Options { return opts },
		func(int) DataStructure[Rd, Wr, Resp] { return create() })
}

// NewShardedFunc creates n independent NR instances with per-shard
// options and constructors — each shard can size its own log ring and
// carry its own stats tag, and each shard's replicas can draw from
// disjoint resources (e.g. page-table frame regions).
func NewShardedFunc[Rd any, Wr any, Resp any](shards int, opts func(shard int) Options, create func(shard int) DataStructure[Rd, Wr, Resp]) *Sharded[Rd, Wr, Resp] {
	if shards < 1 {
		shards = 1
	}
	s := &Sharded[Rd, Wr, Resp]{}
	for i := 0; i < shards; i++ {
		i := i
		s.shards = append(s.shards, New(opts(i), func() DataStructure[Rd, Wr, Resp] { return create(i) }))
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded[Rd, Wr, Resp]) NumShards() int { return len(s.shards) }

// Shard returns shard i.
func (s *Sharded[Rd, Wr, Resp]) Shard(i int) *NR[Rd, Wr, Resp] { return s.shards[i] }

// Register attaches a thread to replica `replica` of every shard. On
// failure it releases the slots already claimed on earlier shards, so a
// failing registration leaves no residue — repeated failures cannot
// exhaust MaxThreadsPerReplica.
func (s *Sharded[Rd, Wr, Resp]) Register(replica int) (*ShardedThread[Rd, Wr, Resp], error) {
	t := &ShardedThread[Rd, Wr, Resp]{s: s}
	for _, sh := range s.shards {
		c, err := sh.Register(replica)
		if err != nil {
			for _, prev := range t.ctxs {
				prev.Deregister()
			}
			return nil, err
		}
		t.ctxs = append(t.ctxs, c)
	}
	return t, nil
}

// Deregister releases the thread's slot on every shard. The same
// quiescence rule as ThreadContext.Deregister applies.
func (t *ShardedThread[Rd, Wr, Resp]) Deregister() {
	for _, c := range t.ctxs {
		c.Deregister()
	}
}

// shardOf maps a key to a shard index.
func (s *Sharded[Rd, Wr, Resp]) shardOf(key uint64) int {
	// Fibonacci hashing spreads sequential keys (inode numbers, page
	// indices) across shards.
	return int((key * 0x9e3779b97f4a7c15) >> 32 % uint64(len(s.shards)))
}

// ShardOf exposes the key → shard map, so callers can address the same
// shard an Execute(key, ...) would (cross-shard protocols, isolation
// checks).
func (s *Sharded[Rd, Wr, Resp]) ShardOf(key uint64) int { return s.shardOf(key) }

// Execute runs a mutating operation on the shard owning key.
func (t *ShardedThread[Rd, Wr, Resp]) Execute(key uint64, op Wr) Resp {
	return t.ctxs[t.s.shardOf(key)].Execute(op)
}

// ExecuteRead runs a read-only operation on the shard owning key.
func (t *ShardedThread[Rd, Wr, Resp]) ExecuteRead(key uint64, op Rd) Resp {
	return t.ctxs[t.s.shardOf(key)].ExecuteRead(op)
}

// ExecuteOn runs a mutating operation on an explicit shard index —
// the escape hatch cross-shard protocols use to address a step at a
// specific shard (e.g. the process tree pinned to shard 0, or a
// namespace broadcast visiting every shard in order).
func (t *ShardedThread[Rd, Wr, Resp]) ExecuteOn(shard int, op Wr) Resp {
	return t.ctxs[shard].Execute(op)
}

// ExecuteReadOn runs a read-only operation on an explicit shard index.
func (t *ShardedThread[Rd, Wr, Resp]) ExecuteReadOn(shard int, op Rd) Resp {
	return t.ctxs[shard].ExecuteRead(op)
}

// ExecuteBatchOn runs a vector of mutating operations contiguously on an
// explicit shard's log (PR 2's ExecuteBatch semantics, per shard: the
// half-ring invariant is enforced by each shard's own combiner passes
// and MaxBatchOps, so splitting the log across shards leaves the
// invariant intact shard-by-shard).
func (t *ShardedThread[Rd, Wr, Resp]) ExecuteBatchOn(shard int, ops []Wr) []Resp {
	return t.ctxs[shard].ExecuteBatch(ops)
}
