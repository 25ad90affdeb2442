package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/sys"
)

// poisoningHandler forwards every crossing to a kernel handler and, once
// the call has returned, overwrites the request it lent with 0xA5 —
// unless the request lends its bytes (a write's Data, which the NR log
// entry points at until every replica has applied it). A kernel that
// keeps any other request past its call then reads poison.
type poisoningHandler struct{ h *handler }

func (p poisoningHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	ret, out := p.h.Syscall(frame, payload)
	poisonRequest(frame, payload)
	return ret, out
}

func (p poisoningHandler) SyscallInto(frame marshal.SyscallFrame, payload []byte, dst []byte) marshal.RetFrame {
	ret := p.h.SyscallInto(frame, payload, dst)
	poisonRequest(frame, payload)
	return ret
}

func (p poisoningHandler) TakeWitness(into []sys.Witness) []sys.Witness {
	return p.h.TakeWitness(into)
}

func (p poisoningHandler) Core() int { return p.h.Core() }

func poisonRequest(frame marshal.SyscallFrame, payload []byte) {
	if op, err := sys.DecodeWrite(frame, payload); err == nil && len(op.Data) > 0 {
		return
	}
	for i := range payload {
		payload[i] = 0xA5
	}
}

// TestPerCallRequestIsLentForTheCall: the request of every call that
// cannot park, and a batch's, is lent to the kernel for the call only —
// the handle reuses its request buffer for the next call — so nothing the
// kernel keeps may point into it. On a two-replica kernel, on both
// kernels, a checked handle on replica 0 whose every request is poisoned
// once its call returns seeks, reads, preads and writes, per call and
// through batches, and opens, closes and stats files, and a sibling
// process on the same handler maps and unmaps; replica 1 applies all of
// it only afterwards, when a checked handle on it preads and reads the
// file back and stats the files. Both must read what was written, the
// contract must hold on both handles, and the replicas must agree.
func TestPerCallRequestIsLentForTheCall(t *testing.T) {
	const size, rounds = 16 << 10, 8
	r := rand.New(rand.NewSource(43))
	for _, shards := range []int{0, 2} {
		s, err := Boot(Config{Cores: 2 * CoresPerNode, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if s.NumReplicas() != 2 {
			t.Fatalf("shards=%d: %d replicas", shards, s.NumReplicas())
		}
		init, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, size)
		r.Read(want)
		fd, e := init.Open("/lent", sys.OCreate|sys.ORdWr)
		if e != sys.EOK {
			t.Fatal(e)
		}
		if _, e := init.Write(fd, want); e != sys.EOK {
			t.Fatal(e)
		}
		hd, err := s.pinnedHandler(0)
		if err != nil {
			t.Fatal(err)
		}
		w := sys.NewSys(init.PID(), poisoningHandler{hd})
		w.EnableContract()
		fail := func(what string, n uint64, e sys.Errno, want int) {
			if e != sys.EOK || n != uint64(want) {
				t.Fatalf("shards=%d %s: %d, %v; want %d", shards, what, n, e, want)
			}
		}
		child, e := init.Spawn("mapper") // init has no address space
		if e != sys.EOK {
			t.Fatal(e)
		}
		m := sys.NewSys(child, poisoningHandler{hd})
		got := make([]byte, 1<<10)
		for round := range rounds {
			path := fmt.Sprintf("/lent%d", round)
			f, e := w.Open(path, sys.OCreate|sys.ORdWr)
			fail("open", uint64(f), e, int(f))
			fail("close", 0, w.Close(f), 0)
			st, e := w.Stat(path)
			fail("stat", st.Size, e, 0)
			va, e := m.MMap(uint64(1+round%3) * mmu.L1PageSize)
			fail("mmap", 0, e, 0)
			fail("munmap", 0, m.MUnmap(va), 0)
			off := r.Intn(size - len(got))
			ops := []sys.Op{sys.OpSeek(fd, int64(off), fs.SeekSet)}
			for range 4 {
				p := make([]byte, 128)
				r.Read(p)
				ops = append(ops, sys.OpWrite(fd, p))
				copy(want[off:], p)
				off += len(p)
			}
			comps, e := w.SubmitWait(ops)
			if e != sys.EOK {
				t.Fatalf("shards=%d batch: %v", shards, e)
			}
			for _, c := range comps {
				if c.Errno != sys.EOK {
					t.Fatalf("shards=%d batch entry: %v", shards, c.Errno)
				}
			}
			off = r.Intn(size - len(got))
			n, e := w.Seek(fd, int64(off), fs.SeekSet)
			fail("seek", n, e, off)
			p := make([]byte, 64)
			r.Read(p)
			n, e = w.Write(fd, p)
			fail("write", n, e, len(p))
			copy(want[off:], p)
			n, e = w.Seek(fd, int64(off), fs.SeekSet)
			fail("seek", n, e, off)
			n, e = w.Read(fd, got)
			fail("read", n, e, len(got))
			if !bytes.Equal(got, want[off:off+len(got)]) {
				t.Fatalf("shards=%d: read at %d diverges", shards, off)
			}
			off = r.Intn(size - len(got))
			n, e = w.Pread(fd, got, uint64(off))
			fail("pread", n, e, len(got))
			if !bytes.Equal(got, want[off:off+len(got)]) {
				t.Fatalf("shards=%d: pread at %d diverges", shards, off)
			}
		}
		other, err := s.RawSysOn(init.PID(), CoresPerNode)
		if err != nil {
			t.Fatal(err)
		}
		other.EnableContract()
		all := make([]byte, size)
		n, e := other.Pread(fd, all, 0)
		fail("replica 1 pread", n, e, size)
		if !bytes.Equal(all, want) {
			t.Errorf("shards=%d: replica 1 preads bytes that diverge from what was written", shards)
		}
		clear(all)
		n, e = other.Seek(fd, 0, fs.SeekSet)
		fail("replica 1 seek", n, e, 0)
		n, e = other.Read(fd, all)
		fail("replica 1 read", n, e, size)
		if !bytes.Equal(all, want) {
			t.Errorf("shards=%d: replica 1 reads bytes that diverge from what was written", shards)
		}
		for round := range rounds {
			if _, e := other.Stat(fmt.Sprintf("/lent%d", round)); e != sys.EOK {
				t.Errorf("shards=%d: replica 1 stats /lent%d: %v", shards, round, e)
			}
		}
		for i, h := range []*sys.Sys{w, other} {
			if err := h.ContractErr(); err != nil {
				t.Errorf("shards=%d handle on replica %d: %v", shards, i, err)
			}
		}
		if err := s.CheckReplicaAgreement(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}
