package nr

import (
	"sync"
	"testing"
)

// TestShardedStress hammers a Sharded group from many goroutines mixing
// keyed writes, keyed reads, explicit-shard ops, batches, and
// register/deregister churn — the pattern the sharded kernel's handlers
// produce. Run under -race in CI; correctness check is per-key
// monotonicity plus final replica agreement on every shard.
func TestShardedStress(t *testing.T) {
	const (
		shards   = 4
		replicas = 2
		workers  = 8
		iters    = 400
	)
	s := NewShardedFunc(shards,
		func(int) Options { return Options{Replicas: replicas, LogSize: 256} },
		func(int) DataStructure[kvRead, kvWrite, kvResp] { return newKV() })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Register/deregister churn: a fresh context every few
				// hundred ops, like short-lived process handlers.
				ctx, err := s.Register(w % replicas)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < 4; j++ {
					// Keyed range disjoint from the explicit-shard keys below.
					key := uint64(10_000 + w*10_000 + i*4 + j)
					ctx.Execute(key, kvWrite{key: key, val: key + 1})
					if r := ctx.ExecuteRead(key, kvRead{key: key}); !r.ok || r.val != key+1 {
						t.Errorf("worker %d: read-own-write key %d = %+v", w, key, r)
						ctx.Deregister()
						return
					}
				}
				// Explicit-shard ops (the router's broadcast path).
				sh := i % shards
				ctx.ExecuteOn(sh, &kvWrite{key: uint64(w), val: uint64(i)})
				ctx.ExecuteReadOn(sh, kvRead{key: uint64(w)})
				if i%16 == 0 {
					ops := []kvWrite{
						{key: uint64(w*7 + 1), val: uint64(i)},
						{key: uint64(w*7 + 2), val: uint64(i)},
					}
					if resps := ctx.ExecuteBatchOn(sh, ops, nil); len(resps) != len(ops) {
						t.Errorf("batch returned %d resps for %d ops", len(resps), len(ops))
					}
				}
				ctx.Deregister()
			}
		}()
	}
	wg.Wait()
	// Every shard's replicas must agree after the storm.
	for i := 0; i < shards; i++ {
		var states []map[uint64]uint64
		for r := 0; r < replicas; r++ {
			s.Shard(i).Replica(r).Inspect(func(d DataStructure[kvRead, kvWrite, kvResp]) {
				m := d.(*kvStore).m
				cp := make(map[uint64]uint64, len(m))
				for k, v := range m {
					cp[k] = v
				}
				states = append(states, cp)
			})
		}
		for r := 1; r < replicas; r++ {
			if len(states[r]) != len(states[0]) {
				t.Fatalf("shard %d: replica %d has %d keys, replica 0 has %d",
					i, r, len(states[r]), len(states[0]))
			}
			for k, v := range states[0] {
				if states[r][k] != v {
					t.Fatalf("shard %d: replica %d diverged at key %d: %d != %d",
						i, r, k, states[r][k], v)
				}
			}
		}
	}
}

// TestShardOfDistribution checks the Fibonacci-hash shard routing:
// deterministic, in range, and roughly uniform over sequential keys —
// the shapes PIDs and inode numbers actually take.
func TestShardOfDistribution(t *testing.T) {
	for _, shards := range []int{2, 3, 4, 8} {
		s := NewShardedFunc(shards,
			func(int) Options { return Options{Replicas: 1, LogSize: 64} },
			func(int) DataStructure[kvRead, kvWrite, kvResp] { return newKV() })
		const keys = 4096
		counts := make([]int, shards)
		for k := uint64(1); k <= keys; k++ {
			sh := s.ShardOf(k)
			if sh < 0 || sh >= shards {
				t.Fatalf("shards=%d: ShardOf(%d) = %d out of range", shards, k, sh)
			}
			if sh != s.ShardOf(k) {
				t.Fatalf("shards=%d: ShardOf(%d) not deterministic", shards, k)
			}
			counts[sh]++
		}
		fair := keys / shards
		for i, c := range counts {
			if c == 0 {
				t.Errorf("shards=%d: shard %d never chosen over %d sequential keys", shards, i, keys)
			}
			if c > 2*fair {
				t.Errorf("shards=%d: shard %d got %d of %d keys (fair share %d)",
					shards, i, c, keys, fair)
			}
		}
	}
}
