package nr

import (
	"sync"
	"testing"
)

func TestExecuteBatchOrderedResponses(t *testing.T) {
	n := New(Options{Replicas: 2}, newKV)
	c := n.MustRegister(0)
	ops := make([]kvWrite, 64)
	for i := range ops {
		ops[i] = kvWrite{key: 7, val: uint64(i + 1)}
	}
	resps := c.ExecuteBatch(ops)
	if len(resps) != len(ops) {
		t.Fatalf("got %d responses for %d ops", len(resps), len(ops))
	}
	// Each overwrite must observe the previous op of the same batch:
	// responses are in submission order and the batch is contiguous.
	if resps[0].ok {
		t.Error("first insert reported overwrite")
	}
	for i := 1; i < len(resps); i++ {
		if !resps[i].ok || resps[i].val != uint64(i) {
			t.Fatalf("resp[%d] = %+v, want previous value %d", i, resps[i], i)
		}
	}
	if r := c.ExecuteRead(kvRead{key: 7}); !r.ok || r.val != uint64(len(ops)) {
		t.Errorf("final read = %+v, want %d", r, len(ops))
	}
}

func TestExecuteBatchEmptyAndSingle(t *testing.T) {
	n := New(Options{Replicas: 1}, newKV)
	c := n.MustRegister(0)
	if resps := c.ExecuteBatch(nil); resps != nil {
		t.Errorf("empty batch returned %v", resps)
	}
	resps := c.ExecuteBatch([]kvWrite{{key: 1, val: 5}})
	if len(resps) != 1 || resps[0].ok {
		t.Errorf("single-op batch resps = %+v", resps)
	}
	// Interleave with scalar Execute on the same context: the slot must
	// switch cleanly between batch and scalar mode.
	if r := c.Execute(kvWrite{key: 1, val: 6}); !r.ok || r.val != 5 {
		t.Errorf("scalar after batch = %+v", r)
	}
}

func TestExecuteBatchLargerThanMaxBatchOps(t *testing.T) {
	// On a tiny ring one slot's run is capped at half the ring, so a 50-op
	// batch on a 64-slot ring is split into runs of 32 and 18: each run
	// contiguous in the log at both replicas even with a foreign writer
	// appending, and the runs in submission order.
	n := New(Options{Replicas: 2, LogSize: 64}, newSeqLog)
	if got := n.MaxBatchOps(); got != 32 {
		t.Fatalf("MaxBatchOps = %d with 64-slot ring, want 32 (half the ring)", got)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f := n.MustRegister(1)
		for {
			select {
			case <-stop:
				return
			default:
				f.Execute(seqOp{seqID: seqID{thread: 1}})
			}
		}
	}()
	c := n.MustRegister(0)
	for round := 0; round < 20; round++ {
		ops := make([]seqOp, 50)
		for i := range ops {
			ops[i] = seqOp{seqID: seqID{round: round, idx: i}}
		}
		resps := c.ExecuteBatch(ops)
		if len(resps) != len(ops) {
			t.Fatalf("got %d responses", len(resps))
		}
		for i := 1; i < len(resps); i++ {
			if i != 32 && resps[i] != resps[i-1]+1 {
				t.Fatalf("round %d: op %d applied at %d, op %d at %d: run not contiguous",
					round, i, resps[i], i-1, resps[i-1])
			}
		}
		if resps[32] <= resps[31] {
			t.Fatalf("round %d: second run at %d, before the first run's end %d", round, resps[32], resps[31])
		}
	}
	close(stop)
	wg.Wait()
	applied := replicaLogs(t, n)
	next := 0 // the batch thread's ops appear in submission order
	for _, op := range applied {
		if op.thread == 0 {
			if want := (seqID{round: next / 50, idx: next % 50}); op != want {
				t.Fatalf("thread 0's op %d in the log is %+v, want %+v", next, op, want)
			}
			next++
		}
	}
	if next != 20*50 {
		t.Fatalf("log holds %d of thread 0's ops, want %d", next, 20*50)
	}
}

func TestExecuteBatchConcurrent(t *testing.T) {
	const (
		threads = 8
		rounds  = 40
		batch   = 16
	)
	n := New(Options{Replicas: 2}, newKV)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			c := n.MustRegister(th % n.NumReplicas())
			for r := 0; r < rounds; r++ {
				ops := make([]kvWrite, batch)
				for i := range ops {
					// Distinct key per (thread, round, index): the
					// response of every insert must report "absent".
					ops[i] = kvWrite{
						key: uint64(th)<<32 | uint64(r)<<16 | uint64(i),
						val: uint64(th),
					}
				}
				for i, resp := range c.ExecuteBatch(ops) {
					if resp.ok {
						t.Errorf("thread %d round %d op %d: fresh key reported present", th, r, i)
						return
					}
				}
			}
		}(th)
	}
	wg.Wait()
	// All replicas converge on the same state.
	c := n.MustRegister(0)
	total := 0
	for th := 0; th < threads; th++ {
		for r := 0; r < rounds; r++ {
			for i := 0; i < batch; i++ {
				key := uint64(th)<<32 | uint64(r)<<16 | uint64(i)
				if got := c.ExecuteRead(kvRead{key: key}); !got.ok || got.val != uint64(th) {
					t.Fatalf("key %x = %+v", key, got)
				}
				total++
			}
		}
	}
	if total != threads*rounds*batch {
		t.Fatalf("checked %d keys", total)
	}
}

func TestExecuteBatchInterleavedWithScalars(t *testing.T) {
	// Batch submitters and scalar submitters share the log; a batch's
	// internal ordering must survive foreign traffic.
	n := New(Options{Replicas: 2}, newKV)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := n.MustRegister(1)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Execute(kvWrite{key: 1 << 40, val: i})
		}
	}()
	c := n.MustRegister(0)
	for r := 0; r < 50; r++ {
		ops := make([]kvWrite, 8)
		for i := range ops {
			ops[i] = kvWrite{key: 99, val: uint64(r*8 + i + 1)}
		}
		resps := c.ExecuteBatch(ops)
		// Within the batch, op i+1 must observe op i: the run is
		// contiguous in the log even with a concurrent scalar writer.
		for i := 1; i < len(resps); i++ {
			if !resps[i].ok || resps[i].val != uint64(r*8+i) {
				t.Fatalf("round %d resp[%d] = %+v", r, i, resps[i])
			}
		}
	}
	close(stop)
	wg.Wait()
}
