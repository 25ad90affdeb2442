package proc

import (
	"errors"
	"testing"

	"github.com/verified-os/vnros/internal/verifier"
)

func TestSpawnTree(t *testing.T) {
	tb := NewTable()
	a, err := tb.Spawn(InitPID, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tb.Spawn(a, "b")
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := tb.Get(a)
	if !pa.Children[b] || pa.Parent != InitPID || pa.Name != "a" {
		t.Fatalf("a = %+v", pa)
	}
	if _, err := tb.Spawn(999, "x"); !errors.Is(err, ErrNoProcess) {
		t.Errorf("spawn from missing: %v", err)
	}
	if err := tb.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestExitWaitFlow(t *testing.T) {
	tb := NewTable()
	a, _ := tb.Spawn(InitPID, "a")
	if _, err := tb.Wait(InitPID); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("wait before exit: %v", err)
	}
	if err := tb.Exit(a, 42); err != nil {
		t.Fatal(err)
	}
	pa, _ := tb.Get(a)
	if pa.State != StateZombie || pa.ExitCode != 42 {
		t.Fatalf("zombie = %+v", pa)
	}
	// Parent got SIGCHLD.
	pi, _ := tb.Get(InitPID)
	if !pi.Pending.Has(SIGCHLD) {
		t.Error("no SIGCHLD pending on parent")
	}
	res, err := tb.Wait(InitPID)
	if err != nil || res.PID != a || res.ExitCode != 42 {
		t.Fatalf("wait = %+v, %v", res, err)
	}
	if _, err := tb.Get(a); !errors.Is(err, ErrNoProcess) {
		t.Error("zombie survived reaping")
	}
}

func TestDoubleExitRejected(t *testing.T) {
	tb := NewTable()
	a, _ := tb.Spawn(InitPID, "a")
	_ = tb.Exit(a, 0)
	if err := tb.Exit(a, 1); !errors.Is(err, ErrZombie) {
		t.Errorf("double exit: %v", err)
	}
	if _, err := tb.Spawn(a, "child-of-zombie"); !errors.Is(err, ErrZombie) {
		t.Errorf("spawn from zombie: %v", err)
	}
	if err := tb.Kill(a, SIGTERM); !errors.Is(err, ErrZombie) {
		t.Errorf("signal zombie: %v", err)
	}
}

func TestInitProtected(t *testing.T) {
	tb := NewTable()
	if err := tb.Exit(InitPID, 0); !errors.Is(err, ErrInit) {
		t.Errorf("init exit: %v", err)
	}
	if err := tb.Kill(InitPID, SIGKILL); !errors.Is(err, ErrInit) {
		t.Errorf("init kill -9: %v", err)
	}
	// Non-fatal signals to init are fine.
	if err := tb.Kill(InitPID, SIGUSR1); err != nil {
		t.Errorf("init SIGUSR1: %v", err)
	}
}

func TestWaitReapsLowestPIDFirst(t *testing.T) {
	tb := NewTable()
	a, _ := tb.Spawn(InitPID, "a")
	b, _ := tb.Spawn(InitPID, "b")
	_ = tb.Exit(b, 2)
	_ = tb.Exit(a, 1)
	res, _ := tb.Wait(InitPID)
	if res.PID != a {
		t.Fatalf("reaped %d first, want %d", res.PID, a)
	}
	res, _ = tb.Wait(InitPID)
	if res.PID != b {
		t.Fatalf("reaped %d second", res.PID)
	}
}

func TestPIDsSorted(t *testing.T) {
	tb := NewTable()
	_, _ = tb.Spawn(InitPID, "a")
	_, _ = tb.Spawn(InitPID, "b")
	pids := tb.PIDs()
	if len(pids) != 3 || pids[0] != InitPID {
		t.Fatalf("pids = %v", pids)
	}
	for i := 1; i < len(pids); i++ {
		if pids[i] <= pids[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 31})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}

// TestSignalsTakenLowestFirst: pending signals are a set, taken lowest
// number first across the whole signal range, and delivering one — an
// exit's SIGCHLD to its parent included — or taking one allocates
// nothing.
func TestSignalsTakenLowestFirst(t *testing.T) {
	tb := NewTable()
	a, _ := tb.Spawn(InitPID, "a")
	for _, sig := range []Signal{200, SIGTERM, 64, SIGUSR1, 63, SIGTERM} {
		if err := tb.Kill(a, sig); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []Signal{SIGUSR1, SIGTERM, 63, 64, 200} {
		if sig, ok, err := tb.TakeSignal(a); err != nil || !ok || sig != want {
			t.Fatalf("TakeSignal = %d, %v, %v; want %d", sig, ok, err, want)
		}
	}
	if _, ok, _ := tb.TakeSignal(a); ok {
		t.Fatal("a signal left after taking every one")
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = tb.Kill(a, SIGUSR1)
		_, _, _ = tb.TakeSignal(a)
	}); n != 0 {
		t.Errorf("delivering and taking a signal allocates %.0f objects", n)
	}
	if err := tb.Exit(a, 0); err != nil {
		t.Fatal(err)
	}
	if sig, ok, _ := tb.TakeSignal(InitPID); !ok || sig != SIGCHLD {
		t.Errorf("init took %d, %v after its child exited; want SIGCHLD", sig, ok)
	}
}
