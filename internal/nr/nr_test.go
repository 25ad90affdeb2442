package nr

import (
	"fmt"
	"sync"
	"testing"

	"github.com/verified-os/vnros/internal/verifier"
)

// kvStore is a sequential map used as the replicated structure in tests.
type kvStore struct {
	m map[uint64]uint64
}

type kvRead struct{ key uint64 }

type kvWrite struct {
	key, val uint64
	del      bool
}

type kvResp struct {
	val uint64
	ok  bool
}

func newKV() DataStructure[kvRead, kvWrite, kvResp] {
	return &kvStore{m: make(map[uint64]uint64)}
}

func (s *kvStore) DispatchRead(op kvRead) kvResp {
	v, ok := s.m[op.key]
	return kvResp{val: v, ok: ok}
}

func (s *kvStore) DispatchWrite(op kvWrite) kvResp {
	if op.del {
		_, ok := s.m[op.key]
		delete(s.m, op.key)
		return kvResp{ok: ok}
	}
	old, ok := s.m[op.key]
	s.m[op.key] = op.val
	return kvResp{val: old, ok: ok}
}

// inPlaceKV is kvStore answering reads in place. Its DispatchRead
// answers wrong, so a read served by it instead of DispatchReadInto shows.
type inPlaceKV struct{ kvStore }

func (s *inPlaceKV) DispatchRead(kvRead) kvResp { return kvResp{val: ^uint64(0)} }

func (s *inPlaceKV) DispatchReadInto(op *kvRead, out *kvResp) {
	out.val, out.ok = s.m[op.key]
}

// ExecuteReadInto answers in place through an InPlaceReader and through
// DispatchRead for any other data structure, after syncing to the tail
// as ExecuteRead does: a write on one replica is seen by a read on the
// other either way.
func TestExecuteReadInto(t *testing.T) {
	for name, create := range map[string]func() DataStructure[kvRead, kvWrite, kvResp]{
		"in place": func() DataStructure[kvRead, kvWrite, kvResp] {
			return &inPlaceKV{kvStore{m: make(map[uint64]uint64)}}
		},
		"by value": newKV,
	} {
		n := New(Options{Replicas: 2}, create)
		w, r := n.MustRegister(0), n.MustRegister(1)
		w.Execute(kvWrite{key: 3, val: 30})
		op, out := kvRead{key: 3}, kvResp{val: 7}
		r.ExecuteReadInto(&op, &out)
		if out != (kvResp{val: 30, ok: true}) {
			t.Errorf("%s: read %+v, want {30 true}", name, out)
		}
		op = kvRead{key: 4}
		r.ExecuteReadInto(&op, &out)
		if out != (kvResp{}) {
			t.Errorf("%s: read of a missing key %+v, want the zero response", name, out)
		}
	}
}

func TestSingleThreadedBasics(t *testing.T) {
	n := New(Options{Replicas: 2}, newKV)
	c := n.MustRegister(0)
	if r := c.Execute(kvWrite{key: 1, val: 10}); r.ok {
		t.Error("first insert reported overwrite")
	}
	if r := c.ExecuteRead(kvRead{key: 1}); !r.ok || r.val != 10 {
		t.Errorf("read = %+v", r)
	}
	if r := c.Execute(kvWrite{key: 1, val: 20}); !r.ok || r.val != 10 {
		t.Errorf("overwrite resp = %+v", r)
	}
	if r := c.Execute(kvWrite{key: 1, del: true}); !r.ok {
		t.Error("delete of present key reported absent")
	}
	if r := c.ExecuteRead(kvRead{key: 1}); r.ok {
		t.Error("read after delete found key")
	}
}

func TestReadsOnOtherReplicaSeePriorWrites(t *testing.T) {
	n := New(Options{Replicas: 2}, newKV)
	w := n.MustRegister(0)
	r := n.MustRegister(1)
	for i := uint64(0); i < 100; i++ {
		w.Execute(kvWrite{key: i, val: i * 2})
		// Linearizability: a read invoked after the write returns must
		// observe it, regardless of replica.
		if got := r.ExecuteRead(kvRead{key: i}); !got.ok || got.val != i*2 {
			t.Fatalf("replica 1 read key %d = %+v", i, got)
		}
	}
}

func TestReplicasConvergeToSameState(t *testing.T) {
	n := New(Options{Replicas: 3}, newKV)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := n.MustRegister(g % 3)
			for i := 0; i < 500; i++ {
				c.Execute(kvWrite{key: uint64(i % 50), val: uint64(g*1000 + i)})
			}
		}(g)
	}
	wg.Wait()

	var states []map[uint64]uint64
	for i := 0; i < 3; i++ {
		n.Replica(i).Inspect(func(ds DataStructure[kvRead, kvWrite, kvResp]) {
			src := ds.(*kvStore).m
			cp := make(map[uint64]uint64, len(src))
			for k, v := range src {
				cp[k] = v
			}
			states = append(states, cp)
		})
	}
	for i := 1; i < 3; i++ {
		if len(states[i]) != len(states[0]) {
			t.Fatalf("replica %d has %d keys, replica 0 has %d", i, len(states[i]), len(states[0]))
		}
		for k, v := range states[0] {
			if states[i][k] != v {
				t.Fatalf("replica %d diverged at key %d: %d != %d", i, k, states[i][k], v)
			}
		}
	}
}

func TestResponsesMatchSequentialHistory(t *testing.T) {
	// Single replica, many threads: each thread increments a per-thread
	// counter key; responses (old values) must form the exact sequence
	// 0,1,2,... proving no lost or duplicated application.
	n := New(Options{Replicas: 1}, newKV)
	const threads, iters = 8, 300
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := n.MustRegister(0)
			key := uint64(g)
			for i := 0; i < iters; i++ {
				cur := c.ExecuteRead(kvRead{key: key})
				next := cur.val + 1
				if !cur.ok {
					next = 1
				}
				old := c.Execute(kvWrite{key: key, val: next})
				if old.ok && old.val != next-1 {
					errs <- fmt.Errorf("thread %d: old=%d want %d", g, old.val, next-1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c := n.MustRegister(0)
	for g := 0; g < threads; g++ {
		if got := c.ExecuteRead(kvRead{key: uint64(g)}); got.val != iters {
			t.Errorf("thread %d final = %d, want %d", g, got.val, iters)
		}
	}
}

// TestLogWraparound drives more operations than the ring has slots,
// forcing garbage collection and slot reuse, across two replicas where
// one replica is mostly idle (exercising the helper path).
func TestLogWraparound(t *testing.T) {
	n := New(Options{Replicas: 2, LogSize: 64}, newKV)
	c := n.MustRegister(0)
	idle := n.MustRegister(1)
	for i := 0; i < 10_000; i++ {
		c.Execute(kvWrite{key: uint64(i % 7), val: uint64(i)})
	}
	if got := idle.ExecuteRead(kvRead{key: 6}); !got.ok {
		t.Fatal("idle replica read failed after wraparound")
	}
	if n.Tail() != 10_000 {
		t.Errorf("tail = %d, want 10000", n.Tail())
	}
}

func TestConcurrentWraparoundBothReplicas(t *testing.T) {
	n := New(Options{Replicas: 2, LogSize: 128}, newKV)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := n.MustRegister(g % 2)
			for i := 0; i < 2_000; i++ {
				c.Execute(kvWrite{key: uint64(g), val: uint64(i)})
			}
		}(g)
	}
	wg.Wait()
	c := n.MustRegister(0)
	for g := 0; g < 4; g++ {
		if got := c.ExecuteRead(kvRead{key: uint64(g)}); !got.ok || got.val != 1999 {
			t.Errorf("key %d = %+v, want 1999", g, got)
		}
	}
}

func TestCombinerBatches(t *testing.T) {
	n := New(Options{Replicas: 1}, newKV)
	const threads = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := n.MustRegister(0)
			<-start
			for i := 0; i < 200; i++ {
				c.Execute(kvWrite{key: uint64(g), val: uint64(i)})
			}
		}(g)
	}
	close(start)
	wg.Wait()
	ops, batches := n.Replica(0).CombinerStats()
	if ops != threads*200 {
		t.Fatalf("combined ops = %d, want %d", ops, threads*200)
	}
	if batches == 0 || batches > ops {
		t.Fatalf("batches = %d implausible for %d ops", batches, ops)
	}
	t.Logf("flat combining: %d ops in %d batches (%.1f ops/batch)",
		ops, batches, float64(ops)/float64(batches))
}

func TestRegisterBounds(t *testing.T) {
	n := New(Options{Replicas: 1}, newKV)
	for i := 0; i < MaxThreadsPerReplica; i++ {
		if _, err := n.Register(0); err != nil {
			t.Fatalf("register %d failed: %v", i, err)
		}
	}
	if _, err := n.Register(0); err == nil {
		t.Fatal("registration beyond bound succeeded")
	}
}

func TestShardedBasics(t *testing.T) {
	s := NewSharded(4, Options{Replicas: 2}, newKV)
	th, err := s.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		th.Execute(k, kvWrite{key: k, val: k + 1})
	}
	for k := uint64(0); k < 100; k++ {
		if got := th.ExecuteRead(k, kvRead{key: k}); !got.ok || got.val != k+1 {
			t.Fatalf("key %d = %+v", k, got)
		}
	}
}

func TestShardedSpreadsKeys(t *testing.T) {
	s := NewSharded(4, Options{Replicas: 1}, newKV)
	counts := make([]int, 4)
	for k := uint64(0); k < 1000; k++ {
		counts[s.shardOf(k)]++
	}
	for i, c := range counts {
		if c < 100 {
			t.Errorf("shard %d got only %d/1000 keys", i, c)
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	n := New(Options{}, newKV)
	if n.NumReplicas() != 1 {
		t.Errorf("default replicas = %d", n.NumReplicas())
	}
	s := NewSharded(0, Options{}, newKV)
	if s.NumShards() != 1 {
		t.Errorf("default shards = %d", s.NumShards())
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 83})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
	if len(rep.Results) < 10 {
		t.Fatalf("only %d nr VCs", len(rep.Results))
	}
}
