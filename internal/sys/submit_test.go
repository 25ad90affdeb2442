package sys

import (
	"runtime"
	"testing"
	"time"

	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
)

// The batch lifecycle misuse matrix: every wrong transition fails
// deterministically with its own sentinel, with no waiting and no
// crossing. Run under -race in CI (the concurrent-wait case exercises
// the claim CAS).

func TestBatchMisuseWaitBeforeSubmit(t *testing.T) {
	_, s := newSysPair(t)
	b := s.NewBatch(SubmitOptions{})
	if _, err := b.Wait(); err != ErrBatchEmpty {
		t.Fatalf("wait on empty unsubmitted batch: %v, want ErrBatchEmpty", err)
	}
	b.Add(OpMkdir("/m"))
	if _, err := b.Wait(); err != ErrBatchNotSubmitted {
		t.Fatalf("wait before submit: %v, want ErrBatchNotSubmitted", err)
	}
}

func TestBatchMisuseEmptySubmit(t *testing.T) {
	_, s := newSysPair(t)
	if err := s.NewBatch(SubmitOptions{}).Submit(); err != ErrBatchEmpty {
		t.Fatalf("empty submit: %v, want ErrBatchEmpty", err)
	}
	if comps, err := s.SubmitOpts(nil, SubmitOptions{}).Wait(); err != ErrBatchEmpty || comps != nil {
		t.Fatalf("empty SubmitOpts().Wait() = %v, %v, want ErrBatchEmpty", comps, err)
	}
}

func TestBatchMisuseDoubleSubmitAndWait(t *testing.T) {
	_, s := newSysPair(t)
	fd, e := s.Open("/misuse", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	b := s.NewBatch(SubmitOptions{}).Add(OpWrite(fd, []byte("x")))
	if err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Submit(); err != ErrBatchSubmitted {
		t.Fatalf("double submit: %v, want ErrBatchSubmitted", err)
	}
	if comps, err := b.Wait(); err != nil || len(comps) != 1 {
		t.Fatalf("first wait: %v, %v", comps, err)
	}
	if _, err := b.Wait(); err != ErrBatchReaped {
		t.Fatalf("double wait: %v, want ErrBatchReaped", err)
	}
	if _, err := b.WaitN(1); err != ErrBatchReaped {
		t.Fatalf("waitN after reap: %v, want ErrBatchReaped", err)
	}
	if err := b.Submit(); err != ErrBatchReaped {
		t.Fatalf("submit after wait: %v, want ErrBatchReaped", err)
	}
}

func TestBatchMisuseWaitNRange(t *testing.T) {
	_, s := newSysPair(t)
	fd, e := s.Open("/range", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	b := s.NewBatch(SubmitOptions{}).Add(OpWrite(fd, []byte("x")))
	if err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitN(2); err != ErrWaitRange {
		t.Fatalf("waitN beyond the batch: %v, want ErrWaitRange", err)
	}
	if _, err := b.WaitN(-1); err != ErrWaitRange {
		t.Fatalf("waitN(-1): %v, want ErrWaitRange", err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Two goroutines racing into Wait on the same batch: exactly one wins
// the reaper claim, the loser fails deterministically with
// ErrBatchBusy. The gate holds the batch in flight and the park hook
// signals once the winner holds the claim, so the loser's attempt is
// ordered after it — no timing assumptions.
func TestBatchMisuseConcurrentWait(t *testing.T) {
	k := newTestKernel()
	gate := make(chan struct{}, 1)
	s := NewSys(proc.InitPID, &gatedBatchHandler{inner: &directHandler{k: k}, gate: gate})
	fd, e := s.Open("/conc", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	b := s.NewBatch(SubmitOptions{Wait: WaitBlock}).Add(OpWrite(fd, []byte("race")))
	claimed := make(chan struct{})
	var once bool
	b.parkHook = func(stage int) {
		if stage == parkStagePrepared && !once {
			once = true
			close(claimed)
		}
	}
	if err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	winner := make(chan error, 1)
	go func() {
		comps, err := b.Wait()
		if err == nil && len(comps) != 1 {
			err = ErrBatchEmpty
		}
		winner <- err
	}()
	<-claimed // the goroutine holds the reaper claim and is in its park protocol
	if _, err := b.Wait(); err != ErrBatchBusy {
		t.Fatalf("concurrent wait: %v, want ErrBatchBusy", err)
	}
	gate <- struct{}{}
	if err := <-winner; err != nil {
		t.Fatalf("winner: %v", err)
	}
}

// A blocking wait must park on the CQ doorbell, never burn the core:
// with the batch held in flight, the waiter records at least one park
// and zero spin iterations — the scheduler-idle assertion the CI
// wait-mode job keys on.
func TestBlockingWaitParksDoesNotSpin(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	k := newTestKernel()
	gate := make(chan struct{}, 1)
	s := NewSys(proc.InitPID, &gatedBatchHandler{inner: &directHandler{k: k}, gate: gate})
	fd, e := s.Open("/park", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	b := s.NewBatch(SubmitOptions{Wait: WaitBlock}).Add(OpWrite(fd, []byte("zzz")))
	parked := make(chan struct{})
	var signalled bool
	b.parkHook = func(stage int) {
		if stage == parkStageParking && !signalled {
			signalled = true
			close(parked)
		}
	}
	if err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.Wait()
		done <- err
	}()
	<-parked // the waiter is past its re-check, committed to parking
	gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if parks := obs.RingWaitParks.Load(); parks == 0 {
		t.Fatal("blocking wait completed without parking on the doorbell")
	}
	if spins := obs.RingWaitSpins.Load(); spins != 0 {
		t.Fatalf("blocking wait burned the core: %d spin iterations", spins)
	}
	if wakes := obs.RingWaitWakes.Load(); wakes == 0 {
		t.Fatal("parked waiter saw no doorbell wake")
	}
}

// Poll mode never waits: while the batch is gated in flight, Wait
// reports ErrBatchPending with whatever has posted; after completion it
// reaps normally.
func TestWaitPollMode(t *testing.T) {
	k := newTestKernel()
	gate := make(chan struct{}, 1)
	s := NewSys(proc.InitPID, &gatedBatchHandler{inner: &directHandler{k: k}, gate: gate})
	fd, e := s.Open("/poll", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	b := s.NewBatch(SubmitOptions{Wait: WaitPoll}).Add(OpWrite(fd, []byte("p")))
	if err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	if comps, err := b.Wait(); err != ErrBatchPending || len(comps) != 0 {
		t.Fatalf("poll on gated batch: %v, %v, want ErrBatchPending", comps, err)
	}
	gate <- struct{}{}
	deadline := time.After(5 * time.Second)
	for !b.Done() {
		select {
		case <-deadline:
			t.Fatal("batch never completed")
		default:
		}
	}
	comps, err := b.Wait()
	if err != nil || len(comps) != 1 || comps[0].Errno != EOK {
		t.Fatalf("poll reap after completion: %v, %v", comps, err)
	}
	if _, err := b.Wait(); err != ErrBatchReaped {
		t.Fatalf("second poll reap: %v, want ErrBatchReaped", err)
	}
}

// Spin mode reaps correctly (and is the mode that is allowed to burn
// the core — the latency/efficiency trade the bench quantifies).
func TestWaitSpinMode(t *testing.T) {
	_, s := newSysPair(t)
	fd, e := s.Open("/spin", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	b := s.SubmitOpts([]Op{OpWrite(fd, []byte("fast")), OpRead(fd, 4)}, SubmitOptions{Wait: WaitSpin})
	comps, err := b.Wait()
	if err != nil || len(comps) != 2 {
		t.Fatalf("spin wait: %v, %v", comps, err)
	}
	if comps[0].Errno != EOK || comps[0].Val != 4 {
		t.Fatalf("spin write completion: %+v", comps[0])
	}
}

// The completion callback fires exactly once, from the drainer, with
// the full completion queue — and composes with a normal Wait.
func TestSubmitCallback(t *testing.T) {
	_, s := newSysPair(t)
	fd, e := s.Open("/cb", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	got := make(chan int, 2)
	b := s.SubmitOpts([]Op{OpWrite(fd, []byte("one")), OpWrite(fd, []byte("two"))},
		SubmitOptions{OnComplete: func(comps []Completion, err error) {
			if err != nil {
				got <- -1
				return
			}
			got <- len(comps)
		}})
	if comps, err := b.Wait(); err != nil || len(comps) != 2 {
		t.Fatalf("wait: %v, %v", comps, err)
	}
	if n := <-got; n != 2 {
		t.Fatalf("callback saw %d completions, want 2", n)
	}
	select {
	case n := <-got:
		t.Fatalf("callback fired twice (second: %d)", n)
	default:
	}
}

// A validation failure (bad open flags) surfaces through Submit, the
// callback, and Wait consistently — and SubmitWait's legacy Errno
// surface still reports it as EINVAL.
func TestSubmitValidationFailure(t *testing.T) {
	_, s := newSysPair(t)
	bad := []Op{OpOpen("/x", OWrOnly|ORdWr)}
	cbErr := make(chan error, 1)
	b := s.NewBatch(SubmitOptions{OnComplete: func(_ []Completion, err error) { cbErr <- err }}).Add(bad...)
	if err := b.Submit(); err == nil {
		t.Fatal("submit accepted invalid open flags")
	}
	if err := <-cbErr; errnoOf(err) != EINVAL {
		t.Fatalf("callback error: %v, want EINVAL", err)
	}
	if _, err := b.Wait(); errnoOf(err) != EINVAL {
		t.Fatalf("wait error: %v, want EINVAL", err)
	}
	if _, e := s.SubmitWait(bad); e != EINVAL {
		t.Fatalf("SubmitWait: %v, want EINVAL", e)
	}
	// Typed socket boundary validation, same posture: the zero SockID
	// and the ephemeral destination port never cross.
	if _, e := s.SubmitWait([]Op{OpSockSend(0, 0xA, 1, []byte("x"))}); e != EBADF {
		t.Fatalf("zero SockID: %v, want EBADF", e)
	}
	if _, e := s.SubmitWait([]Op{OpSockSend(1, 0xA, 0, []byte("x"))}); e != EINVAL {
		t.Fatalf("port-0 send: %v, want EINVAL", e)
	}
	if _, _, _, e := s.SockRecv(0); e != EBADF {
		t.Fatalf("scalar recv on zero SockID: %v, want EBADF", e)
	}
}

// WaitN returns early on a chunked batch while later chunks are still
// in flight, and the final Wait delivers everything exactly once.
func TestWaitNPartialReap(t *testing.T) {
	k := newTestKernel()
	gate := make(chan struct{}, 1)
	s := NewSys(proc.InitPID, &gatedBatchHandler{inner: &directHandler{k: k}, gate: gate})
	fd, e := s.Open("/partial", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	n := ringChunk + 16
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = OpWrite(fd, []byte{byte(i)})
	}
	b := s.NewBatch(SubmitOptions{Wait: WaitBlock}).Add(ops...)
	if err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // first chunk only
	part, err := b.WaitN(ringChunk)
	if err != nil {
		t.Fatalf("waitN: %v", err)
	}
	if len(part) < ringChunk || len(part) >= n {
		t.Fatalf("waitN(%d) = %d completions on a half-gated %d-op batch", ringChunk, len(part), n)
	}
	gate <- struct{}{}
	all, err := b.Wait()
	if err != nil || len(all) != n {
		t.Fatalf("final wait: %d comps, %v", len(all), err)
	}
}

// TestSubmitWaitKeepsSubmissionOrder: a process's batches execute in
// submission order, a synchronous one included. A polled batch is still
// queued on the handle's ring (at GOMAXPROCS 1 its drainer has not run)
// when SubmitWait is called on the same handle; the SubmitWait batch must
// apply after it, so the file ends with the second write.
func TestSubmitWaitKeepsSubmissionOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range 20 {
		_, s := newSysPair(t)
		fd, e := s.Open("/order", OCreate|ORdWr)
		if e != EOK {
			t.Fatal(e)
		}
		first := s.SubmitOpts([]Op{OpSeek(fd, 0, 0), OpWrite(fd, []byte("AAAA"))}, SubmitOptions{Wait: WaitPoll})
		if _, e := s.SubmitWait([]Op{OpSeek(fd, 0, 0), OpWrite(fd, []byte("BBBB"))}); e != EOK {
			t.Fatal(e)
		}
		for !first.Done() {
			runtime.Gosched()
		}
		if _, err := first.Wait(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, e := s.Pread(fd, buf, 0); e != EOK {
			t.Fatal(e)
		}
		if string(buf) != "BBBB" {
			t.Fatalf("run %d: the file reads %q: SubmitWait overtook the batch queued before it", i, buf)
		}
		if err := s.ContractErr(); err != nil {
			t.Fatal(err)
		}
	}
}
