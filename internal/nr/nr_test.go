package nr

import (
	"fmt"
	"math/rand"
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

// recordingKV is kvStore applying writes in place (InPlaceWriter) and
// recording, per applied entry, the slot it was handed. Its DispatchWrite
// answers wrong, so an entry served by it instead of DispatchWriteInto
// shows.
type recordingKV struct {
	kvStore
	outs []*kvResp
}

func (s *recordingKV) DispatchWrite(kvWrite) kvResp { return kvResp{val: ^uint64(0)} }

func (s *recordingKV) DispatchWriteInto(op *kvWrite, out *kvResp) {
	s.outs = append(s.outs, out)
	if r := s.kvStore.DispatchWrite(*op); out != nil {
		*out = r
	}
}

// TestWritesAnsweredInIssuerSlot: with two replicas every entry is
// applied on both, and an InPlaceWriter is handed the issuer's slot —
// ThreadContext.resp for a single op, resps[i] inside a run — on the
// issuer's replica and nil on the other. A data structure without the
// interface is answered through DispatchWrite, the same answers.
func TestWritesAnsweredInIssuerSlot(t *testing.T) {
	recs := make([]*recordingKV, 0, 2)
	n := New(Options{Replicas: 2}, func() DataStructure[kvRead, kvWrite, kvResp] {
		r := &recordingKV{kvStore: kvStore{m: make(map[uint64]uint64)}}
		recs = append(recs, r)
		return r
	})
	c0, c1 := n.MustRegister(0), n.MustRegister(1)
	var want [2][]*kvResp // per replica, the slot each entry must get, in log order
	own := func(c *ThreadContext[kvRead, kvWrite, kvResp], out *kvResp) {
		want[c.r.id] = append(want[c.r.id], out)
		want[1-c.r.id] = append(want[1-c.r.id], nil)
	}
	if r := c0.ExecuteInto(&kvWrite{key: 1, val: 10}); r != &c0.resp || *r != (kvResp{}) {
		t.Fatalf("first write answered %p %+v, want the issuer's slot %p, zero", r, *r, &c0.resp)
	}
	own(c0, &c0.resp)
	if r := c1.Execute(kvWrite{key: 1, val: 11}); r != (kvResp{val: 10, ok: true}) {
		t.Fatalf("second write answered %+v", r)
	}
	own(c1, &c1.resp)
	// A run's entries are answered at resps[i] of the issuer's vector,
	// which ExecuteBatch copies out: each entry's slot holds its answer,
	// and no two share one.
	resps := c0.ExecuteBatch([]kvWrite{{key: 2, val: 20}, {key: 1, val: 12}})
	if resps[0] != (kvResp{}) || resps[1] != (kvResp{val: 11, ok: true}) {
		t.Fatalf("batch answered %+v", resps)
	}
	n.Replica(0).Sync()
	n.Replica(1).Sync()
	for rep, rec := range recs {
		if len(rec.outs) != 4 {
			t.Fatalf("replica %d applied %d entries, want 4", rep, len(rec.outs))
		}
		for i, out := range rec.outs[:2] {
			if out != want[rep][i] {
				t.Errorf("replica %d entry %d handed %p, want %p", rep, i, out, want[rep][i])
			}
		}
		for i, out := range rec.outs[2:4] {
			if (out == nil) != (rep != 0) {
				t.Errorf("replica %d batch entry %d handed %p", rep, i, out)
			} else if out != nil && *out != resps[i] {
				t.Errorf("replica %d batch entry %d handed a slot holding %+v, want resps[%d] %+v", rep, i, *out, i, resps[i])
			}
		}
	}
	if rec := recs[0]; rec.outs[2] == rec.outs[3] {
		t.Errorf("both batch entries were handed the same slot %p", rec.outs[2])
	}

	// The by-value fallback: the same history, answered by DispatchWrite.
	n = New(Options{Replicas: 2}, newKV)
	c0, c1 = n.MustRegister(0), n.MustRegister(1)
	if r := *c0.ExecuteInto(&kvWrite{key: 1, val: 10}); r != (kvResp{}) {
		t.Fatalf("by value: first write answered %+v", r)
	}
	if r := c1.Execute(kvWrite{key: 1, val: 11}); r != (kvResp{val: 10, ok: true}) {
		t.Fatalf("by value: second write answered %+v", r)
	}
	if r := c0.ExecuteBatch([]kvWrite{{key: 2, val: 20}, {key: 1, val: 12}}); r[0] != (kvResp{}) || r[1] != (kvResp{val: 11, ok: true}) {
		t.Fatalf("by value: batch answered %+v", r)
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

// inPlaceOblKV is the linearizability VC's map applying writes in place.
// Its DispatchWrite answers wrong, so an entry it serves by value shows.
type inPlaceOblKV struct{ oblKV }

func (s *inPlaceOblKV) DispatchWrite(oblW) oblResp { return oblResp{v: ^uint64(0)} }

func (s *inPlaceOblKV) DispatchWriteInto(op *oblW, out *oblResp) {
	if r := s.oblKV.DispatchWrite(*op); out != nil {
		*out = r
	}
}

// TestHistoriesLinearizableBothWriteForms runs nr:histories-linearizable's
// check over an InPlaceWriter and over a by-value data structure: the
// responses an issuer reads from its slot linearize either way.
func TestHistoriesLinearizableBothWriteForms(t *testing.T) {
	for name, create := range map[string]func() DataStructure[oblR, oblW, oblResp]{
		"in place": func() DataStructure[oblR, oblW, oblResp] {
			return &inPlaceOblKV{oblKV{m: make(map[uint64]uint64)}}
		},
		"by value": newOblKV,
	} {
		for seed := range int64(20) {
			if err := checkLinearizable(rand.New(rand.NewSource(seed)), create); err != nil {
				t.Fatalf("%s, seed %d: %v", name, seed, err)
			}
		}
	}
}
