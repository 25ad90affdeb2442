package sys

import (
	"math/rand"
	"testing"

	"github.com/verified-os/vnros/internal/proc"
)

// The batch lifecycle misuse matrix: every wrong transition fails
// deterministically with its own sentinel, with no crossing. Run under
// -race in CI (the concurrent-wait case has two reapers on one batch).

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
	if err := b.Submit(); err != ErrBatchReaped {
		t.Fatalf("submit after wait: %v, want ErrBatchReaped", err)
	}
}

// Two goroutines reaping the same batch: the one that carries it across
// returns its completions, and the other, waiting behind it on the
// handle, gets ErrBatchReaped. The second starts only once the gate
// has let the first into its crossing, so the order is fixed without
// timing.
func TestBatchMisuseConcurrentWait(t *testing.T) {
	k := newTestKernel()
	g := &gatedBatchHandler{inner: &directHandler{k: k}, gate: make(chan struct{})}
	s := NewSys(proc.InitPID, g)
	fd, e := s.Open("/conc", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	b := s.NewBatch(SubmitOptions{}).Add(OpWrite(fd, []byte("race")))
	if err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	type reaped struct {
		comps []Completion
		err   error
	}
	results := make(chan reaped, 2)
	reap := func() {
		comps, err := b.Wait()
		results <- reaped{comps, err}
	}
	go reap()
	g.gate <- struct{}{} // the first reaper is crossing (the gate took the token)
	go reap()
	var won, lost int
	for range 2 {
		switch r := <-results; {
		case r.err == ErrBatchReaped:
			lost++
		case r.err == nil && len(r.comps) == 1 && r.comps[0].Val == 4:
			won++
		default:
			t.Fatalf("reaper: %v, %v", r.comps, r.err)
		}
	}
	if won != 1 || lost != 1 {
		t.Fatalf("%d reapers got the batch and %d ErrBatchReaped, want 1 and 1", won, lost)
	}
}

// TestReapersFIFOExactlyOnce runs the ring-reapers-fifo-exactly-once
// sweep over several seeds (under -race in CI).
func TestReapersFIFOExactlyOnce(t *testing.T) {
	for seed := range int64(4) {
		if err := ringReapSweep(rand.New(rand.NewSource(seed))); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// A validation failure (bad open flags) surfaces through Submit and
// Wait consistently — and SubmitWait's Errno surface reports it as
// EINVAL.
func TestSubmitValidationFailure(t *testing.T) {
	_, s := newSysPair(t)
	bad := []Op{OpOpen("/x", OWrOnly|ORdWr)}
	b := s.NewBatch(SubmitOptions{}).Add(bad...)
	if err := b.Submit(); errnoOf(err) != EINVAL {
		t.Fatalf("submit: %v, want EINVAL", err)
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

// TestSubmitWaitKeepsSubmissionOrder: a batch crosses on its reaper,
// and a handle's batches cross in submission order. A submitted batch
// has not crossed before anything waits; SubmitWait on the same handle
// carries it across first, so the file ends with the second write, and
// the first batch's own Wait then returns its completions.
func TestSubmitWaitKeepsSubmissionOrder(t *testing.T) {
	_, s := newSysPair(t)
	fd, e := s.Open("/order", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	first := s.SubmitOpts([]Op{OpSeek(fd, 0, 0), OpWrite(fd, []byte("AAAA"))}, SubmitOptions{})
	buf := make([]byte, 4)
	if n, e := s.Pread(fd, buf, 0); e != EOK || n != 0 {
		t.Fatalf("before any Wait the file reads %d bytes (%v): the batch crossed at Submit", n, e)
	}
	if _, e := s.SubmitWait([]Op{OpSeek(fd, 0, 0), OpWrite(fd, []byte("BBBB"))}); e != EOK {
		t.Fatal(e)
	}
	if _, e := s.Pread(fd, buf, 0); e != EOK || string(buf) != "BBBB" {
		t.Fatalf("the file reads %q (%v): SubmitWait overtook the batch queued before it", buf, e)
	}
	comps, err := first.Wait()
	if err != nil || len(comps) != 2 || comps[1].Val != 4 {
		t.Fatalf("first batch: %v, %v", comps, err)
	}
	if err := s.ContractErr(); err != nil {
		t.Fatal(err)
	}
}
