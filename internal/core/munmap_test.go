package core

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/sys"
)

// TestMunmapReplyIsTheFrame: a munmap's freed frames are core's to give
// back, not the process's to see, so its reply is the register frame
// alone — no payload carries a physical address across the boundary —
// and every frame still goes back to the shared pool exactly once: after
// pairs of mmaps and munmaps of one to four pages, issued alternately
// from a handler on each replica so that each replica applies some of
// them as the issuer's and some after the call, the pool holds what it
// held before. On both kernels, with one replica and with two.
func TestMunmapReplyIsTheFrame(t *testing.T) {
	for _, cfg := range []Config{
		{Cores: 2}, {Cores: 2, Shards: 2},
		{Cores: 2 * CoresPerNode}, {Cores: 2 * CoresPerNode, Shards: 2},
	} {
		s, err := Boot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mode := fmt.Sprintf("shards=%d, %d replicas", cfg.Shards, s.NumReplicas())
		init, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		pid, e := init.Spawn("mapper")
		if e != sys.EOK {
			t.Fatal(e)
		}
		var hds []*handler
		for _, core := range []int{0, cfg.Cores - 1} {
			hd, err := s.pinnedHandler(core)
			if err != nil {
				t.Fatal(err)
			}
			hds = append(hds, hd)
		}
		allocated := func() uint64 {
			s.dataMu.Lock()
			defer s.dataMu.Unlock()
			return s.dataAlloc.Stats().AllocatedFrames
		}
		before := allocated()
		for i := range 64 {
			hd := hds[i%len(hds)]
			pages := uint64(1 + i%4)
			ret, out := hd.Syscall(sys.EncodeWrite(sys.WriteOp{Num: sys.NumMMap, PID: pid, Size: pages * mmu.L1PageSize}))
			if sys.Errno(ret.Errno) != sys.EOK || len(out) != 0 {
				t.Fatalf("%s: mmap of %d pages: %v, %d payload bytes", mode, pages, sys.Errno(ret.Errno), len(out))
			}
			if got := allocated() - before; got != pages {
				t.Fatalf("%s: an mmap of %d pages holds %d frames", mode, pages, got)
			}
			ret, out = hd.Syscall(sys.EncodeWrite(sys.WriteOp{Num: sys.NumMUnmap, PID: pid, VA: mmu.VAddr(ret.Value)}))
			if sys.Errno(ret.Errno) != sys.EOK || len(out) != 0 {
				t.Fatalf("%s: munmap of %d pages: %v, a %d B payload; want the frame alone", mode, pages, sys.Errno(ret.Errno), len(out))
			}
			if got := allocated(); got != before {
				t.Fatalf("%s: after munmap of %d pages the pool holds %d frames, %d before the mmap", mode, pages, got, before)
			}
		}
		if err := s.CheckReplicaAgreement(); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
}

// TestParkedCallsLeaveTheHandle: a call that may park holds no handle,
// so while one goroutine is parked in FutexWait and another in
// SockRecvBlocking on a handle, siblings on that same handle open, stat,
// map and unmap — each holding it — and then make the FutexWake and the
// SockSend (to the handle's own socket, through the switch) that wake
// the two. A parked call that held the handle would stop the siblings,
// and the test would never complete; it asserts no time.
func TestParkedCallsLeaveTheHandle(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		const addr, port = 0xA, 7100
		s, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, Shards: shards, NICAddr: addr, Network: netstack.NewNetwork()})
		if err != nil {
			t.Fatal(err)
		}
		init, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.SpawnHandle(init, "parker")
		if err != nil {
			t.Fatal(err)
		}
		word, e := h.MMap(mmu.L1PageSize)
		if e != sys.EOK {
			t.Fatal(e)
		}
		sock, e := h.SockBind(port)
		if e != sys.EOK {
			t.Fatal(e)
		}
		woken := make(chan error, 2)
		go func() {
			if e := h.FutexWait(word, 0); e != sys.EOK {
				woken <- fmt.Errorf("futex wait: %v", e)
				return
			}
			woken <- nil
		}()
		go func() {
			if p, _, _, e := h.SockRecvBlocking(sock); e != sys.EOK || string(p) != "wake" {
				woken <- fmt.Errorf("receive: %q, %v", p, e)
				return
			}
			woken <- nil
		}()
		for {
			s.futexMu.Lock()
			n := len(s.futexQ[futexKey{pid: h.PID(), va: word}])
			s.futexMu.Unlock()
			if n == 1 {
				break
			}
			runtime.Gosched()
		}
		fail := func(what string, e sys.Errno) {
			if e != sys.EOK {
				t.Fatalf("%s beside the parked calls: %v", what, e)
			}
		}
		for i := range 8 {
			path := fmt.Sprintf("/sibling%d", i)
			fd, e := h.Open(path, sys.OCreate|sys.ORdWr)
			fail("open", e)
			fail("close", h.Close(fd))
			_, e = h.Stat(path)
			fail("stat", e)
			va, e := h.MMap(mmu.L1PageSize)
			fail("mmap", e)
			fail("munmap", h.MUnmap(va))
		}
		if n, e := h.FutexWake(word, 1); e != sys.EOK || n != 1 {
			t.Fatalf("futex wake: %d woken, %v", n, e)
		}
		_, e = h.SockSend(sock, addr, port, []byte("wake"))
		fail("send", e)
		for range 2 {
			if err := <-woken; err != nil {
				t.Fatal(err)
			}
		}
	})
}
