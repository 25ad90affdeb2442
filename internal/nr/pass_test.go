package nr

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"github.com/verified-os/vnros/internal/lin"
)

// seqLog is a sequential structure that records what it applies, in
// order: a replica's copy is that replica's view of the log, and a
// write's response is the position it was applied at — so a contiguous
// run shows as consecutive responses.
type seqLog struct{ applied []seqID }

// seqID names one op of one submission.
type seqID struct{ thread, round, idx int }

// seqOp is the logged op: its name, and a payload that rides along
// unrecorded.
type seqOp struct {
	seqID
	payload []byte
}

func newSeqLog() DataStructure[struct{}, seqOp, int] { return &seqLog{} }

func (l *seqLog) DispatchRead(struct{}) int { return len(l.applied) }

func (l *seqLog) DispatchWrite(op seqOp) int {
	l.applied = append(l.applied, op.seqID)
	return len(l.applied) - 1
}

// replicaLogs returns every replica's applied sequence after checking
// they are the same sequence.
func replicaLogs(t *testing.T, n *NR[struct{}, seqOp, int]) []seqID {
	t.Helper()
	var logs [][]seqID
	for i := 0; i < n.NumReplicas(); i++ {
		n.Replica(i).Inspect(func(ds DataStructure[struct{}, seqOp, int]) {
			logs = append(logs, append([]seqID(nil), ds.(*seqLog).applied...))
		})
	}
	for i := 1; i < len(logs); i++ {
		if !slices.Equal(logs[i], logs[0]) {
			t.Fatalf("replica %d applied a different sequence (%d ops) than replica 0 (%d ops)", i, len(logs[i]), len(logs[0]))
		}
	}
	return logs[0]
}

// TestBoundedPassManyThreads: 64 threads each loop ExecuteBatch of
// MaxBatchOps ops, all pending at once — 8 192 ops against a pass bound
// of 1 024 on the default ring, and one slot per pass on a 256-slot ring.
// Every batch is contiguous and in submission order at both replicas,
// every thread completes every round, and the history of batches (each
// one atomic fetch-and-add on the log position) is linearizable.
func TestBoundedPassManyThreads(t *testing.T) {
	const (
		threads = 64
		rounds  = 5
	)
	for _, logSize := range []int{0, 256} {
		n := New(Options{Replicas: 2, LogSize: logSize}, newSeqLog)
		size := n.MaxBatchOps()
		if size != maxBatchOps {
			t.Fatalf("LogSize %d: MaxBatchOps = %d, want %d", logSize, size, maxBatchOps)
		}
		rec := lin.NewRecorder[int, int]()
		first := make([][]int, threads) // [thread][round] = position of the batch's op 0
		ctxs := make([]*ThreadContext[struct{}, seqOp, int], threads)
		for th := range ctxs {
			ctxs[th] = n.MustRegister(th % 2)
			first[th] = make([]int, rounds)
		}
		// A barrier between rounds: all 64 slots are pending together, and
		// the history's windows do not overlap (lin.CheckChunked).
		for r := 0; r < rounds; r++ {
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					ops := make([]seqOp, size)
					for i := range ops {
						ops[i] = seqOp{seqID: seqID{th, r, i}}
					}
					p := rec.Invoke(th, len(ops))
					resps := ctxs[th].ExecuteBatch(ops)
					p.Return(resps[0])
					first[th][r] = resps[0]
					for i := range resps {
						if resps[i] != resps[0]+i {
							t.Errorf("LogSize %d thread %d round %d: op %d applied at %d, op 0 at %d",
								logSize, th, r, i, resps[i], resps[0])
							return
						}
					}
				}(th)
			}
			wg.Wait()
		}
		applied := replicaLogs(t, n)
		if len(applied) != threads*rounds*size {
			t.Fatalf("LogSize %d: %d ops applied, want %d", logSize, len(applied), threads*rounds*size)
		}
		for th := 0; th < threads; th++ {
			for r := 0; r < rounds; r++ {
				if r > 0 && first[th][r] < first[th][r-1] {
					t.Errorf("LogSize %d thread %d: round %d at %d, before round %d at %d",
						logSize, th, r, first[th][r], r-1, first[th][r-1])
				}
				for i := 0; i < size; i++ {
					if got, want := applied[first[th][r]+i], (seqID{th, r, i}); got != want {
						t.Fatalf("LogSize %d: position %d holds %+v, want %+v", logSize, first[th][r]+i, got, want)
					}
				}
			}
		}
		model := lin.Model[int, int, int]{
			Init:      func() int { return 0 },
			Apply:     func(s, ops int) (int, int) { return s + ops, s },
			Key:       strconv.Itoa,
			EqualResp: func(a, b int) bool { return a == b },
		}
		if err := lin.CheckChunked(model, rec.History(), threads); err != nil {
			t.Errorf("LogSize %d: %v", logSize, err)
		}
	}
}

// TestLogDoesNotPinPayloads: a log slot keeps its op — payload included —
// reachable until the tail laps it, so what an idle instance pins is
// bounded by the ring. Ten laps of 4 KiB payloads, then a collection: the
// live heap holds at most a ring of them.
func TestLogDoesNotPinPayloads(t *testing.T) {
	const payload = 4096
	n := New(Options{Replicas: 2}, newSeqLog)
	c := n.MustRegister(0)
	ring := len(n.log.slots)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10*ring; i++ {
		c.Execute(seqOp{seqID: seqID{idx: i}, payload: make([]byte, payload)})
	}
	n.Replica(1).Sync()
	runtime.GC()
	runtime.ReadMemStats(&after)
	const slack = 4 << 20 // both replicas' applied records, and the runtime's own
	if grown, bound := int64(after.HeapAlloc)-int64(before.HeapAlloc), int64(ring*payload+slack); grown > bound {
		t.Errorf("%d ops through a %d-slot ring left %d bytes live, want at most %d",
			10*ring, ring, grown, bound)
	}
	runtime.KeepAlive(n)
}
