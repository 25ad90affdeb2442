package core

import (
	"runtime"
	"strings"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/relwork"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

func bootTest(t *testing.T, cores int) (*System, *sys.Sys) {
	t.Helper()
	s, err := Boot(Config{Cores: cores, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	initSys, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	return s, initSys
}

func TestBootDefaults(t *testing.T) {
	s, err := Boot(Config{MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumReplicas() != 1 {
		t.Errorf("replicas = %d", s.NumReplicas())
	}
	s28, err := Boot(Config{Cores: 28, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s28.NumReplicas() != 2 {
		t.Errorf("28 cores should give 2 replicas, got %d", s28.NumReplicas())
	}
	if _, err := Boot(Config{MemBytes: 64 << 20}); err == nil {
		t.Error("tiny memory accepted")
	}
}

func TestInitFileSyscalls(t *testing.T) {
	_, initSys := bootTest(t, 2)
	fd, e := initSys.Open("/hello", fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		t.Fatal(e)
	}
	if _, e := initSys.Write(fd, []byte("composed kernel")); e != sys.EOK {
		t.Fatal(e)
	}
	if _, e := initSys.Seek(fd, 0, fs.SeekSet); e != sys.EOK {
		t.Fatal(e)
	}
	buf := make([]byte, 8)
	if _, e := initSys.Read(fd, buf); e != sys.EOK || string(buf) != "composed" {
		t.Fatalf("read = %q, %v", buf, e)
	}
	if err := initSys.ContractErr(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessLifecycleThroughSystem(t *testing.T) {
	s, initSys := bootTest(t, 4)
	done := make(chan int, 1)
	p, err := s.Run(initSys, "child", func(p *Process) int {
		pid, e := p.Sys.GetPID()
		if e != sys.EOK || pid != p.PID {
			done <- -1
			return 1
		}
		done <- int(pid)
		return 42
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != int(p.PID) {
		t.Fatalf("child saw pid %d", got)
	}
	s.WaitAll()
	res, e := initSys.Wait()
	if e != sys.EOK || res.PID != p.PID || res.ExitCode != 42 {
		t.Fatalf("wait = %+v, %v", res, e)
	}
}

func TestUserMemoryThroughSystem(t *testing.T) {
	s, initSys := bootTest(t, 2)
	errs := make(chan error, 1)
	_, err := s.Run(initSys, "mem", func(p *Process) int {
		base, e := p.Sys.MMap(3 * 4096)
		if e != sys.EOK {
			errs <- e
			return 1
		}
		msg := []byte("crossing pages: " + strings.Repeat("z", 5000))
		if e := p.Sys.MemWrite(base+100, msg); e != sys.EOK {
			errs <- e
			return 1
		}
		got := make([]byte, len(msg))
		if e := p.Sys.MemRead(base+100, got); e != sys.EOK {
			errs <- e
			return 1
		}
		if string(got) != string(msg) {
			errs <- sys.EFAULT
			return 1
		}
		if e := p.Sys.MUnmap(base); e != sys.EOK {
			errs <- e
			return 1
		}
		if e := p.Sys.MemRead(base, got[:4]); e != sys.EFAULT {
			errs <- e
			return 1
		}
		errs <- nil
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := <-errs; e != nil {
		t.Fatal(e)
	}
	s.WaitAll()
}

func TestMultiReplicaAgreement(t *testing.T) {
	s, initSys := bootTest(t, 28) // 2 replicas
	if s.NumReplicas() != 2 {
		t.Fatalf("replicas = %d", s.NumReplicas())
	}
	// Processes land on different cores/replicas (round-robin).
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		_, err := s.Run(initSys, name, func(p *Process) int {
			fd, e := p.Sys.Open("/"+name, fs.OCreate|fs.ORdWr)
			if e != sys.EOK {
				results <- e
				return 1
			}
			if _, e := p.Sys.Write(fd, []byte(name)); e != sys.EOK {
				results <- e
				return 1
			}
			results <- nil
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if e := <-results; e != nil {
			t.Fatal(e)
		}
	}
	s.WaitAll()
	if err := s.CheckReplicaAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckKernelInvariants(); err != nil {
		t.Fatal(err)
	}
	// Files visible from init (replica 0's path) regardless of writer.
	for i := 0; i < 4; i++ {
		if _, e := initSys.Stat("/" + string(rune('a'+i))); e != sys.EOK {
			t.Errorf("file %c missing: %v", 'a'+i, e)
		}
	}
}

func TestNetworkBetweenSystems(t *testing.T) {
	wire := netstack.NewNetwork()
	sa, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, NICAddr: 0xA, Network: wire})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, NICAddr: 0xB, Network: wire})
	if err != nil {
		t.Fatal(err)
	}
	initA, _ := sa.Init()
	initB, _ := sb.Init()

	// Server on B.
	ready := make(chan sys.SockID, 1)
	got := make(chan string, 1)
	_, err = sb.Run(initB, "server", func(p *Process) int {
		sock, e := p.Sys.SockBind(7000)
		if e != sys.EOK {
			ready <- 0
			return 1
		}
		ready <- sock
		payload, from, fromPort, e := p.Sys.SockRecvBlocking(sock)
		if e != sys.EOK {
			got <- "recv error"
			return 1
		}
		_, _ = p.Sys.SockSend(sock, from, fromPort, []byte("ack:"+string(payload)))
		got <- string(payload)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if <-ready == 0 {
		t.Fatal("server bind failed")
	}

	// Client on A.
	reply := make(chan string, 1)
	_, err = sa.Run(initA, "client", func(p *Process) int {
		sock, e := p.Sys.SockBind(0)
		if e != sys.EOK {
			reply <- "bind fail"
			return 1
		}
		if _, e := p.Sys.SockSend(sock, 0xB, 7000, []byte("hello-b")); e != sys.EOK {
			reply <- "send fail"
			return 1
		}
		payload, _, _, e := p.Sys.SockRecvBlocking(sock)
		if e != sys.EOK {
			reply <- "recv fail"
			return 1
		}
		reply <- string(payload)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg := <-got; msg != "hello-b" {
		t.Fatalf("server got %q", msg)
	}
	if msg := <-reply; msg != "ack:hello-b" {
		t.Fatalf("client got %q", msg)
	}
	sa.WaitAll()
	sb.WaitAll()
}

func TestConsole(t *testing.T) {
	s, _ := bootTest(t, 1)
	s.Printf("boot: %d cores\n", 1)
	if !strings.Contains(s.ConsoleOutput(), "boot: 1 cores") {
		t.Fatalf("console = %q", s.ConsoleOutput())
	}
}

func TestComponentInventoryDerivesFullTable2(t *testing.T) {
	s, _ := bootTest(t, 1)
	self := s.Components.Derive("vnros")
	for _, row := range relwork.Table2Components {
		if self.Table2[row] != relwork.Yes {
			t.Errorf("component %q not fully covered: %v", row, self.Table2[row])
		}
	}
	if self.Table1["Process-centric spec"] != relwork.Yes {
		t.Error("process-centric spec claim missing")
	}
	if self.Table1["Security properties"] == relwork.Yes {
		t.Error("security must not be claimed as full (the paper defers it)")
	}
}

func TestKillCleansUpLocalState(t *testing.T) {
	s, initSys := bootTest(t, 2)
	started := make(chan proc.PID, 1)
	blocked := make(chan sys.Errno, 1)
	_, err := s.Run(initSys, "victim", func(p *Process) int {
		sock, e := p.Sys.SockBind(9999)
		if e != sys.EOK {
			started <- 0
			return 1
		}
		_ = sock
		base, e := p.Sys.MMap(4096)
		if e != sys.EOK {
			started <- 0
			return 1
		}
		started <- p.PID
		// Park on a futex forever; SIGKILL must release us.
		blocked <- p.Sys.FutexWait(base, 0)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	pid := <-started
	if pid == 0 {
		t.Fatal("victim setup failed")
	}
	if e := initSys.Kill(pid, proc.SIGKILL); e != sys.EOK {
		t.Fatal(e)
	}
	<-blocked // futex released by cleanup
	s.WaitAll()
	// The port is free again.
	if _, err := s.Net.Bind(9999); err != nil {
		t.Fatalf("port not released: %v", err)
	}
	res, e := initSys.Wait()
	if e != sys.EOK || res.PID != pid {
		t.Fatalf("wait = %+v, %v", res, e)
	}
}

// TestMMapBeyondPoolIsRefused: the frame count of an mmap is user input;
// one the data pool cannot hold is ENOMEM before anything is sized by it
// (it used to size a slice, then drain and refill the whole pool).
func TestMMapBeyondPoolIsRefused(t *testing.T) {
	s, initSys := bootTest(t, 1)
	h, err := s.SpawnHandle(initSys, "mapper")
	if err != nil {
		t.Fatal(err)
	}
	before := s.dataAlloc.Stats()
	for _, size := range []uint64{1 << 40, uint64(sys.UserVATop - sys.UserVABase)} {
		if va, e := h.MMap(size); e != sys.ENOMEM {
			t.Fatalf("MMap(%#x) = %#x, %v; want ENOMEM", size, uint64(va), e)
		}
	}
	if after := s.dataAlloc.Stats(); after != before {
		t.Fatalf("data pool changed: %+v -> %+v", before, after)
	}
	if _, e := h.MMap(4096); e != sys.EOK {
		t.Fatalf("MMap after a refusal: %v", e)
	}
}

// TestFutexWakeCount pins what ulib's Semaphore.Release and Cond.Signal
// rely on: FutexWake(n) releases at most n waiters and returns how many.
// Progress is read from the wait queue and the waiters' returns — no
// sleeps, no clocks.
func TestFutexWakeCount(t *testing.T) {
	s, initSys := bootTest(t, 2)
	h, err := s.SpawnHandle(initSys, "futex")
	if err != nil {
		t.Fatal(err)
	}
	base, e := h.MMap(4096)
	if e != sys.EOK {
		t.Fatal(e)
	}
	parked := func() int {
		s.futexMu.Lock()
		defer s.futexMu.Unlock()
		return len(s.futexQ[futexKey{pid: h.PID(), va: base}])
	}
	returned := make(chan sys.Errno, 3)
	for i := 0; i < 3; i++ {
		th, err := s.NewThreadHandle(h)
		if err != nil {
			t.Fatal(err)
		}
		go func() { returned <- th.FutexWait(base, 0) }()
	}
	for parked() < 3 {
		runtime.Gosched()
	}
	if n, e := h.FutexWake(base, 2); e != sys.EOK || n != 2 {
		t.Fatalf("wake(2) with 3 parked = %d, %v", n, e)
	}
	for i := 0; i < 2; i++ {
		if e := <-returned; e != sys.EOK {
			t.Fatalf("woken waiter: %v", e)
		}
	}
	if got := parked(); got != 1 || len(returned) != 0 {
		t.Fatalf("after wake(2): %d parked, %d extra returns; want exactly one still parked", got, len(returned))
	}
	if n, e := h.FutexWake(base, 5); e != sys.EOK || n != 1 {
		t.Fatalf("wake(5) with 1 parked = %d, %v", n, e)
	}
	if e := <-returned; e != sys.EOK {
		t.Fatalf("last waiter: %v", e)
	}
	if n, e := h.FutexWake(base, 1); e != sys.EOK || n != 0 {
		t.Fatalf("wake with none parked = %d, %v", n, e)
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 67})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}

func TestRegisterAllObligationsCount(t *testing.T) {
	g := &verifier.Registry{}
	RegisterAllObligations(g)
	if g.Len() < 50 {
		t.Fatalf("expected >= 50 VCs across all modules, got %d", g.Len())
	}
	t.Logf("total verification conditions: %d", g.Len())
}
