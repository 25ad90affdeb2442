package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

func bootSharded(t *testing.T, cores, shards int) (*System, *sys.Sys) {
	t.Helper()
	s, err := Boot(Config{Cores: cores, Shards: shards, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	initSys, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	return s, initSys
}

func TestShardedBootGates(t *testing.T) {
	if _, err := Boot(Config{Shards: 2, WAL: true, MemBytes: 256 << 20}); err != nil {
		t.Errorf("sharding + WAL rejected: %v", err)
	}
	if _, err := Boot(Config{Shards: 2, RestoreFS: true, MemBytes: 256 << 20}); err == nil {
		t.Error("sharded restore without WAL accepted")
	}
	if _, err := Boot(Config{Shards: 64, MemBytes: 256 << 20}); err == nil {
		t.Error("shard count beyond the obs slot space accepted")
	}
	s, err := Boot(Config{Shards: 4, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Sharded() || s.NumShards() != 4 {
		t.Errorf("sharded=%v shards=%d", s.Sharded(), s.NumShards())
	}
}

func TestShardedFileSyscalls(t *testing.T) {
	s, initSys := bootSharded(t, 2, 4)
	if e := initSys.Mkdir("/d"); e != sys.EOK {
		t.Fatalf("mkdir: %v", e)
	}
	fd, e := initSys.Open("/d/f", fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		t.Fatalf("open: %v", e)
	}
	if _, e := initSys.Write(fd, []byte("hello, shard")); e != sys.EOK {
		t.Fatalf("write: %v", e)
	}
	if _, e := initSys.Seek(fd, 0, fs.SeekSet); e != sys.EOK {
		t.Fatalf("seek: %v", e)
	}
	buf := make([]byte, 32)
	n, e := initSys.Read(fd, buf)
	if e != sys.EOK || string(buf[:n]) != "hello, shard" {
		t.Fatalf("read: %q %v", buf[:n], e)
	}
	// SeekEnd consults the data owner's authoritative size.
	pos, e := initSys.Seek(fd, -5, fs.SeekEnd)
	if e != sys.EOK || pos != 7 {
		t.Fatalf("seek end: pos=%d %v", pos, e)
	}
	// Stat crosses from a namespace replica to the data owner.
	st, e := initSys.Stat("/d/f")
	if e != sys.EOK || st.Size != 12 {
		t.Fatalf("stat: %+v %v", st, e)
	}
	if e := initSys.Truncate(fd, 5); e != sys.EOK {
		t.Fatalf("truncate: %v", e)
	}
	if st, e = initSys.Stat("/d/f"); e != sys.EOK || st.Size != 5 {
		t.Fatalf("stat after truncate: %+v %v", st, e)
	}
	// Append resolves EOF on the owner shard. Use an uncontracted handle:
	// write_spec models a cursor write, so an OAppend write is outside
	// the per-descriptor contract in monolithic mode too.
	ah, err := s.newHandler(s.pickCore())
	if err != nil {
		t.Fatal(err)
	}
	raw := sys.NewSys(proc.InitPID, ah)
	afd, e := raw.Open("/d/f", fs.OWrOnly|fs.OAppend)
	if e != sys.EOK {
		t.Fatalf("open append: %v", e)
	}
	if _, e := raw.Write(afd, []byte("++")); e != sys.EOK {
		t.Fatalf("append: %v", e)
	}
	if st, e = initSys.Stat("/d/f"); e != sys.EOK || st.Size != 7 {
		t.Fatalf("stat after append: %+v %v", st, e)
	}
	// Namespace ops broadcast: rename + link + readdir agree everywhere.
	if e := initSys.Rename("/d/f", "/d/g"); e != sys.EOK {
		t.Fatalf("rename: %v", e)
	}
	if e := initSys.Link("/d/g", "/d/h"); e != sys.EOK {
		t.Fatalf("link: %v", e)
	}
	ents, e := initSys.ReadDir("/d")
	if e != sys.EOK || len(ents) != 2 {
		t.Fatalf("readdir: %v %v", ents, e)
	}
	if e := initSys.Unlink("/d/h"); e != sys.EOK {
		t.Fatalf("unlink: %v", e)
	}
	if _, e := initSys.Stat("/d/h"); e != sys.ENOENT {
		t.Fatalf("stat unlinked: %v", e)
	}
	if e := initSys.Close(fd); e != sys.EOK {
		t.Fatalf("close: %v", e)
	}
	if e := raw.Close(afd); e != sys.EOK {
		t.Fatalf("close append fd: %v", e)
	}
	if err := initSys.ContractErr(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckKernelInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedProcessesEndToEnd(t *testing.T) {
	s, initSys := bootSharded(t, 4, 4)
	if e := initSys.Mkdir("/tmp"); e != sys.EOK {
		t.Fatalf("mkdir: %v", e)
	}
	const workers = 6
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		i := i
		if _, err := s.Run(initSys, fmt.Sprintf("w%d", i), func(p *Process) int {
			errs <- workerBody(p, i, int64(i)*7919)
			return 0
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	s.WaitAll()
	for i := 0; i < workers; i++ {
		if _, e := initSys.Wait(); e != sys.EOK {
			t.Fatalf("wait %d: %v", i, e)
		}
	}
	if err := initSys.ContractErr(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckKernelInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedKillAndSignals(t *testing.T) {
	s, initSys := bootSharded(t, 2, 2)
	block := make(chan struct{})
	p, err := s.Run(initSys, "victim", func(p *Process) int {
		<-block
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := initSys.Kill(p.PID, proc.SIGKILL); e != sys.EOK {
		t.Fatalf("kill: %v", e)
	}
	res, e := initSys.Wait()
	if e != sys.EOK || res.PID != p.PID {
		t.Fatalf("wait: %+v %v", res, e)
	}
	close(block)
	s.WaitAll()
	if e := initSys.Kill(proc.InitPID, proc.SIGKILL); e != sys.EPERM {
		t.Fatalf("kill init: %v", e)
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		t.Fatal(err)
	}
}

// Sharded WITHOUT WAL has no journal to cut consistently across the
// shard logs: Sync and SaveFS stay unsupported (walshard_core_test.go
// covers the WAL-composed path).
func TestShardedDurabilityNeedsWAL(t *testing.T) {
	s, initSys := bootSharded(t, 2, 2)
	if e := initSys.Sync(); e != sys.ENOSYS {
		t.Errorf("sync on sharded kernel without WAL: %v", e)
	}
	if err := s.SaveFS(); err == nil {
		t.Error("SaveFS on sharded kernel without WAL succeeded")
	}
}

func TestInternalOpsRejectedAtBoundary(t *testing.T) {
	for _, shards := range []int{0, 2} {
		s, err := Boot(Config{Cores: 2, Shards: shards, MemBytes: 256 << 20})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.newHandler(s.pickCore())
		if err != nil {
			t.Fatal(err)
		}
		for num := sys.MaxOpNum + 1; num <= sys.MaxInternalOpNum; num++ {
			ret, out := h.Syscall(marshal.SyscallFrame{Num: num}, nil)
			if resp, err := sys.DecodeResp(ret, out); err != nil || resp.Errno != sys.EINVAL {
				t.Errorf("shards=%d: internal op %d crossed the boundary: %+v %v", shards, num, resp, err)
			}
		}
	}
}

// TestIdleCoreIRQDelivered is the regression test for the interrupt
// fast path: an IRQ parked on a core that never makes syscalls must
// still be delivered by another core's syscall entry (via the pending
// probe), not starve.
func TestIdleCoreIRQDelivered(t *testing.T) {
	s, initSys := bootTest(t, 4)
	const line = 7 // free IRQ line (no device uses it)
	fired := 0
	if err := s.Dispatcher.Handle(line, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	s.Machine.IC.RaiseOn(3, line) // park it on an idle core
	if !s.Dispatcher.HasPending() {
		t.Fatal("pending probe missed the raised IRQ")
	}
	if _, e := initSys.GetPID(); e != sys.EOK { // syscall from core 0
		t.Fatalf("getpid: %v", e)
	}
	if fired != 1 {
		t.Errorf("IRQ on idle core fired %d times, want 1", fired)
	}
	if s.Dispatcher.HasPending() {
		t.Error("pending probe still set after delivery")
	}
}

// TestShardedReadsSeeWrites pins down cross-descriptor visibility: a
// write through one descriptor is visible to an independent descriptor
// of the same file routed through the same owner shard.
func TestShardedReadsSeeWrites(t *testing.T) {
	_, initSys := bootSharded(t, 2, 4)
	w, e := initSys.Open("/x", fs.OCreate|fs.OWrOnly)
	if e != sys.EOK {
		t.Fatalf("open w: %v", e)
	}
	r, e := initSys.Open("/x", fs.ORdOnly)
	if e != sys.EOK {
		t.Fatalf("open r: %v", e)
	}
	payload := []byte("cross-descriptor")
	if _, e := initSys.Write(w, payload); e != sys.EOK {
		t.Fatalf("write: %v", e)
	}
	got := make([]byte, len(payload))
	n, e := initSys.Read(r, got)
	if e != sys.EOK || !bytes.Equal(got[:n], payload) {
		t.Fatalf("read through second fd: %q %v", got[:n], e)
	}
}

// A zero-length write past EOF is a no-op on both kernels, per call and
// in a batch (where checkBatch's splice model has to agree with fs), and
// does not reposition an OAppend descriptor.
func TestZeroLengthWritePastEOF(t *testing.T) {
	for _, shards := range []int{0, 2} {
		s, initSys := bootSharded(t, 2, shards)
		fd, e := initSys.Open("/f", fs.OCreate|fs.ORdWr)
		if e != sys.EOK {
			t.Fatalf("shards=%d open: %v", shards, e)
		}
		if _, e := initSys.Write(fd, []byte("0123456789")); e != sys.EOK {
			t.Fatalf("shards=%d write: %v", shards, e)
		}
		if _, e := initSys.Seek(fd, 88, fs.SeekSet); e != sys.EOK {
			t.Fatalf("shards=%d seek: %v", shards, e)
		}
		if n, e := initSys.Write(fd, nil); e != sys.EOK || n != 0 {
			t.Fatalf("shards=%d write(nil) = %d, %v", shards, n, e)
		}
		comps, e := initSys.SubmitWait([]sys.Op{
			sys.OpWrite(fd, nil), sys.OpSeek(fd, 34, fs.SeekSet), sys.OpRead(fd, 25),
		})
		if e != sys.EOK || comps[0].Errno != sys.EOK || comps[0].Val != 0 {
			t.Fatalf("shards=%d batch: %v %+v", shards, e, comps)
		}
		if comps[2].Errno != sys.EOK || comps[2].Val != 0 {
			t.Fatalf("shards=%d read at 34 of a 10-byte file = %d bytes (%v), want EOF", shards, comps[2].Val, comps[2].Errno)
		}
		afd, e := initSys.Open("/f", fs.OWrOnly|fs.OAppend)
		if e != sys.EOK {
			t.Fatalf("shards=%d open append: %v", shards, e)
		}
		if n, e := initSys.Write(afd, nil); e != sys.EOK || n != 0 {
			t.Fatalf("shards=%d append write(nil) = %d, %v", shards, n, e)
		}
		if pos, e := initSys.Seek(afd, 0, fs.SeekCur); e != sys.EOK || pos != 0 {
			t.Fatalf("shards=%d zero-length append moved the offset to %d (%v)", shards, pos, e)
		}
		if st, e := initSys.Stat("/f"); e != sys.EOK || st.Size != 10 {
			t.Fatalf("shards=%d stat: %+v %v", shards, st, e)
		}
		if err := initSys.ContractErr(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := s.CheckReplicaAgreement(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}
