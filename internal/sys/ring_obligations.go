package sys

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/verifier"
)

// gatedBatchHandler wraps a handler, holds every NumBatch crossing
// until a token arrives on gate, and logs the payload of every batched
// op it lets through, in order: the instrument that freezes batches in
// flight while reapers arrive.
type gatedBatchHandler struct {
	inner Handler
	gate  chan struct{}

	mu      sync.Mutex
	crossed [][]byte
}

func (g *gatedBatchHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	if frame.Num == NumBatch {
		<-g.gate
		ops, _ := DecodeBatch(frame, payload)
		g.mu.Lock()
		for _, op := range ops {
			// A copy: the payload is the handle's, reused by its next batch.
			g.crossed = append(g.crossed, bytes.Clone(op.Data))
		}
		g.mu.Unlock()
	}
	return g.inner.Syscall(frame, payload)
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// registerRingObligations: the batched submission ring discharges the
// same §3 marshalling obligation as the scalar path (batch vectors
// round-trip exactly), and batching is a pure amortization — a batch
// crossing is observationally identical to issuing its ops one by one.
func registerRingObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "sys", Name: "batch-round-trip", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				for i := 0; i < 200; i++ {
					pid := proc.PID(r.Uint64())
					n := 1 + r.Intn(48)
					ops := make([]WriteOp, n)
					for j := range ops {
						ops[j] = randomWriteOp(r)
						ops[j].PID = pid
					}
					frame, payload := EncodeBatch(pid, ops)
					got, err := DecodeBatch(frame, payload)
					if err != nil {
						return err
					}
					if len(got) != n {
						return fmt.Errorf("batch round trip: %d ops in, %d out", n, len(got))
					}
					for j := range ops {
						if !reflect.DeepEqual(normalizeOp(ops[j]), normalizeOp(got[j])) {
							return fmt.Errorf("batch op %d mismatch:\n  in  %+v\n  out %+v",
								j, ops[j], got[j])
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "batch-resp-round-trip", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				for i := 0; i < 200; i++ {
					n := r.Intn(48)
					comps := make([]Completion, n)
					for j := range comps {
						comps[j] = Completion{
							Op:    uint64(r.Intn(int(MaxOpNum) + 1)),
							Errno: Errno(r.Intn(100)),
							Val:   r.Uint64(),
						}
						if r.Intn(2) == 0 {
							comps[j].Data = randBytes(r, r.Intn(64))
						}
					}
					errno := Errno(r.Intn(3))
					ret, payload := EncodeBatchResp(comps, errno)
					got, gotErrno, err := DecodeBatchResp(ret, payload)
					if err != nil {
						return err
					}
					if gotErrno != errno || len(got) != n {
						return fmt.Errorf("batch resp header: errno %v/%v count %d/%d",
							gotErrno, errno, len(got), n)
					}
					for j := range comps {
						a, b := comps[j], got[j]
						if len(a.Data) == 0 {
							a.Data = nil
						}
						if len(b.Data) == 0 {
							b.Data = nil
						}
						if !reflect.DeepEqual(a, b) {
							return fmt.Errorf("completion %d mismatch: %+v vs %+v", j, a, b)
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "batch-refines-sequential", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				// Two identical kernels: one drains random file-op
				// batches through the NumBatch crossing, the other
				// dispatches the same ops one by one. Completions and
				// the resulting FD views must coincide — batching is an
				// amortization, never a semantic change.
				for trial := 0; trial < 25; trial++ {
					kBatch, kSeq := newTestKernel(), newTestKernel()
					sBatch := NewSys(proc.InitPID, &directHandler{k: kBatch})
					ops := randomFileOps(r, 1+r.Intn(32))

					comps, e := sBatch.SubmitWait(ops)
					if e != EOK {
						return fmt.Errorf("batch submit: %v", e)
					}
					for i, op := range ops {
						w := op.w
						w.PID = proc.InitPID
						want := BatchCompletion(w, kSeq.DispatchWrite(w))
						got := comps[i]
						if len(want.Data) == 0 {
							want.Data = nil
						}
						if len(got.Data) == 0 {
							got.Data = nil
						}
						if !reflect.DeepEqual(got, want) {
							return fmt.Errorf("trial %d op %d (%s): batch %+v, sequential %+v",
								trial, i, OpName(w.Num), got, want)
						}
					}
					vb, okb := kBatch.ViewFDs(proc.InitPID)
					vs, oks := kSeq.ViewFDs(proc.InitPID)
					if okb != oks || !reflect.DeepEqual(vb, vs) {
						return fmt.Errorf("trial %d: FD views diverge after batch vs sequential", trial)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "ring-reapers-fifo-exactly-once", Kind: verifier.KindModelCheck,
			Check: ringReapSweep},
	)
}

// ringReapSweep: a batch crosses on its reaper. Batches A, B and C are
// queued on one gated handle and reapers arrive in every order of the
// three, alone and with a second reaper on one of them, while the gate
// lets the crossings through at random points between arrivals. Every
// op must cross exactly once, in submission order, each Wait must return
// its own batch, and every other reap of it ErrBatchReaped.
func ringReapSweep(r *rand.Rand) error {
	k := newTestKernel()
	for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		for dup := -1; dup < 3; dup++ {
			order := perm
			if dup >= 0 {
				at := r.Intn(len(perm) + 1)
				order = append(append(append([]int{}, perm[:at]...), dup), perm[at:]...)
			}
			if err := ringReapRun(r, k, order); err != nil {
				return fmt.Errorf("reapers %v: %w", order, err)
			}
		}
	}
	return nil
}

// ringReapRun queues three batches on a fresh gated handle over k and
// starts a reaper per entry of order (a batch index). After each arrival
// the gate lets through a random number of the crossings the reapers so
// far will make, and the rest after the last one.
func ringReapRun(r *rand.Rand, k *Kernel, order []int) error {
	g := &gatedBatchHandler{inner: &directHandler{k: k}, gate: make(chan struct{})}
	s := NewSys(proc.InitPID, g)
	fd, e := s.Open(fmt.Sprintf("/reap%d", r.Int63()), OCreate|ORdWr)
	if e != EOK {
		return fmt.Errorf("open: %v", e)
	}
	var batches [3]*Batch
	var want [][]byte
	for b := range batches {
		ops := make([]Op, 1+r.Intn(4))
		for i := range ops {
			// Batch b's writes are b+1 bytes long: a completion's count
			// names its batch.
			d := bytes.Repeat([]byte{byte(b<<4 | i)}, b+1)
			ops[i] = OpWrite(fd, d)
			want = append(want, d)
		}
		batches[b] = s.SubmitOpts(ops, SubmitOptions{})
	}
	type reaped struct {
		b     int
		comps []Completion
		err   error
	}
	results := make(chan reaped, len(order))
	// A reaper that crosses too little or too much leaves a send on the
	// gate or a reaper at it waiting: the deadline turns that into an
	// error (its goroutines stay parked).
	deadline := time.After(10 * time.Second)
	crossed, will := 0, 0
	release := func(n int) error {
		for ; n > 0; n-- {
			select {
			case g.gate <- struct{}{}:
				crossed++
			case <-deadline:
				return fmt.Errorf("%d crossings, want %d", crossed, will)
			}
		}
		return nil
	}
	for _, b := range order {
		go func() {
			comps, err := batches[b].Wait()
			results <- reaped{b, comps, err}
		}()
		// A reaper crosses every queued batch up to its own, so the
		// reapers started so far make this many crossings in all.
		will = max(will, b+1)
		if err := release(r.Intn(will - crossed + 1)); err != nil {
			return err
		}
	}
	if err := release(will - crossed); err != nil {
		return err
	}
	var got [3]int
	for range order {
		var res reaped
		select {
		case res = <-results:
		case <-deadline:
			return fmt.Errorf("a reaper never returned after %d crossings", crossed)
		}
		switch {
		case res.err == ErrBatchReaped:
			continue
		case res.err != nil:
			return fmt.Errorf("batch %d: %v", res.b, res.err)
		case len(res.comps) != batches[res.b].Len():
			return fmt.Errorf("batch %d: %d completions for %d ops", res.b, len(res.comps), batches[res.b].Len())
		}
		for i, c := range res.comps {
			if c.Errno != EOK || c.Val != uint64(res.b+1) {
				return fmt.Errorf("batch %d completion %d: %v val %d, not this batch's write", res.b, i, c.Errno, c.Val)
			}
		}
		got[res.b]++
	}
	for b, n := range got {
		if n != 1 {
			return fmt.Errorf("batch %d returned by %d reapers", b, n)
		}
		if _, err := batches[b].Wait(); err != ErrBatchReaped {
			return fmt.Errorf("batch %d reaped again: %v, want ErrBatchReaped", b, err)
		}
	}
	if !reflect.DeepEqual(g.crossed, want) {
		return fmt.Errorf("crossed %x, submitted %x", g.crossed, want)
	}
	return nil
}

// randomFileOps builds a random batch over a tiny path set so opens,
// writes, and namespace ops collide interestingly.
func randomFileOps(r *rand.Rand, n int) []Op {
	paths := []string{"/a", "/b", "/c", "/d/x", "/d"}
	path := func() string { return paths[r.Intn(len(paths))] }
	fd := func() fs.FD { return fs.FD(3 + r.Intn(6)) }
	ops := make([]Op, n)
	for i := range ops {
		switch r.Intn(11) {
		case 0:
			ops[i] = OpOpen(path(), OCreate|ORdWr)
		case 1:
			ops[i] = OpClose(fd())
		case 2:
			ops[i] = OpRead(fd(), uint64(r.Intn(32)))
		case 3:
			ops[i] = OpWrite(fd(), randBytes(r, r.Intn(32)))
		case 4:
			ops[i] = OpSeek(fd(), int64(r.Intn(16)), r.Intn(3))
		case 5:
			ops[i] = OpTruncate(fd(), uint64(r.Intn(64)))
		case 6:
			ops[i] = OpMkdir(path())
		case 7:
			ops[i] = OpUnlink(path())
		case 8:
			ops[i] = OpRmdir(path())
		case 9:
			ops[i] = OpRename(path(), path())
		default:
			ops[i] = OpLink(path(), path())
		}
	}
	return ops
}
