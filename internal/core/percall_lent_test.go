package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// poisoningHandler forwards every crossing to a kernel handler and, once
// the call has returned, overwrites the request it lent with 0xA5 —
// every request but one over nr.SlotBytes, which is an allocation of its
// own the log may keep (sys.Handler). A kernel that keeps any other
// request, or anything of one, past its call then reads poison.
type poisoningHandler struct{ h *handler }

func (p poisoningHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	ret, out := p.h.Syscall(frame, payload)
	poisonRequest(payload)
	return ret, out
}

func (p poisoningHandler) SyscallInto(frame marshal.SyscallFrame, payload []byte, dst []byte) marshal.RetFrame {
	ret := p.h.SyscallInto(frame, payload, dst)
	poisonRequest(payload)
	return ret
}

func (p poisoningHandler) SyscallReply(frame marshal.SyscallFrame, payload, reply []byte) (marshal.RetFrame, []byte) {
	ret, out := p.h.SyscallReply(frame, payload, reply)
	poisonRequest(payload)
	return ret, out
}

func (p poisoningHandler) TakeWitness(into []sys.Witness) []sys.Witness {
	return p.h.TakeWitness(into)
}

func (p poisoningHandler) Core() int { return p.h.Core() }

func poisonRequest(payload []byte) {
	if len(payload) > nr.SlotBytes {
		return
	}
	for i := range payload {
		payload[i] = 0xA5
	}
}

// TestPerCallRequestIsLentForTheCall: every request of a call that cannot
// park, and a batch's, is lent to the kernel for the call only — the
// handle reuses its request buffer for the next call — so nothing the
// kernel keeps may point into it. On both kernels, a checked handle on
// replica 0 whose every request is poisoned once its call returns makes
// directories, creates, opens, links, renames and unlinks files, stats
// them, spawns named children, seeks, reads, preads and writes, per call
// and through batches, and a sibling process on the same handler maps and
// unmaps, and maps a region it writes. Then a checked handle on the
// last replica lists the directories, preads and reads the file back and
// stats the files, the children are looked up there, and the region
// reads back through that replica's page table. With one replica the kernel applies
// the request itself: a name it stored without cloning it reads as
// poison. With two, replica 1 applies all of it only at that point, from
// the log's copies: a logged entry the log did not copy what it borrows
// of applies poison. Both replicas must read what was written, the
// contract must hold on both handles, and the replicas must agree.
// Journaled, the journal must have encoded every record's path and bytes
// when it took it: a restore from the disk reads the same names and
// bytes.
func TestPerCallRequestIsLentForTheCall(t *testing.T) {
	const size, rounds = 16 << 10, 8
	r := rand.New(rand.NewSource(43))
	for _, cfg := range []Config{
		{Cores: 2}, {Cores: 2, Shards: 2},
		{Cores: 2 * CoresPerNode}, {Cores: 2 * CoresPerNode, Shards: 2},
		{Cores: 2 * CoresPerNode, WAL: true},
	} {
		s, err := Boot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last := s.NumReplicas() - 1
		mode := fmt.Sprintf("shards=%d wal=%v replicas=%d", cfg.Shards, cfg.WAL, last+1)
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
			t.Helper()
			if e != sys.EOK || n != uint64(want) {
				t.Fatalf("%s %s: %d, %v; want %d", mode, what, n, e, want)
			}
		}
		child, e := init.Spawn("mapper") // init has no address space
		if e != sys.EOK {
			t.Fatal(e)
		}
		m := sys.NewSys(child, poisoningHandler{hd})
		got := make([]byte, 1<<10)
		// dirs is what each directory must list; names the children
		// spawned through the poisoned handle.
		dirs := map[string][]string{"/": {"lent"}}
		names := map[proc.PID]string{}
		for round := range rounds {
			dir := fmt.Sprintf("/dir%d", round)
			fail("mkdir", 0, w.Mkdir(dir), 0)
			dirs["/"] = append(dirs["/"], dir[1:])
			f, e := w.Open(dir+"/created", sys.OCreate|sys.ORdWr)
			fail("open creating", uint64(f), e, int(f))
			fail("close", 0, w.Close(f), 0)
			f, e = w.Open(dir+"/created", sys.ORdWr)
			fail("open", uint64(f), e, int(f))
			fail("close", 0, w.Close(f), 0)
			fail("link", 0, w.Link(dir+"/created", dir+"/linked"), 0)
			fail("rename", 0, w.Rename(dir+"/linked", dir+"/renamed"), 0)
			f, e = w.Open(dir+"/doomed", sys.OCreate|sys.ORdWr)
			fail("open creating", uint64(f), e, int(f))
			fail("close", 0, w.Close(f), 0)
			fail("unlink", 0, w.Unlink(dir+"/doomed"), 0)
			dirs[dir] = []string{"created", "renamed"}
			st, e := w.Stat(dir + "/renamed")
			fail("stat", st.Size, e, 0)
			name := fmt.Sprintf("child-%d", round)
			pid, e := w.Spawn(name)
			fail("spawn", uint64(pid), e, int(pid))
			names[pid] = name
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
				t.Fatalf("%s batch: %v", mode, e)
			}
			for _, c := range comps {
				if c.Errno != sys.EOK {
					t.Fatalf("%s batch entry: %v", mode, c.Errno)
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
				t.Fatalf("%s: read at %d diverges", mode, off)
			}
			off = r.Intn(size - len(got))
			n, e = w.Pread(fd, got, uint64(off))
			fail("pread", n, e, len(got))
			if !bytes.Equal(got, want[off:off+len(got)]) {
				t.Fatalf("%s: pread at %d diverges", mode, off)
			}
		}
		// One mapping stays, written through replica 0's page table and
		// read back through the last replica's, which maps the frames its
		// mmap entry carried.
		va, e := m.MMap(2 * mmu.L1PageSize)
		fail("mmap", 0, e, 0)
		pattern := make([]byte, 2*mmu.L1PageSize)
		r.Read(pattern)
		fail("mem write", 0, m.MemWrite(va, pattern), 0)
		lastCore := min(last*CoresPerNode+1, cfg.Cores-1)
		other, err := s.RawSysOn(init.PID(), lastCore)
		if err != nil {
			t.Fatal(err)
		}
		other.EnableContract()
		listed := func(h *sys.Sys, on string) {
			t.Helper()
			for dir, want := range dirs {
				ents, e := h.ReadDir(dir)
				var got []string
				for _, ent := range ents {
					got = append(got, ent.Name)
				}
				slices.Sort(want)
				if e != sys.EOK || !slices.Equal(got, want) {
					t.Errorf("%s: %s lists %s as %q, %v; want %q", mode, on, dir, got, e, want)
				}
			}
		}
		listed(other, "the last replica")
		for pid, name := range names {
			s.InspectProcShard(0, last, func(k *sys.Kernel) {
				if p, err := k.Procs().Get(pid); err != nil || p.Name != name {
					t.Errorf("%s: the last replica names process %d %q, %v; want %q", mode, pid, p.Name, err, name)
				}
			})
		}
		mo, err := s.RawSysOn(child, lastCore)
		if err != nil {
			t.Fatal(err)
		}
		mapped := make([]byte, len(pattern))
		fail("last replica mem read", 0, mo.MemRead(va, mapped), 0)
		if !bytes.Equal(mapped, pattern) {
			t.Errorf("%s: the last replica maps other frames than the mmap was given", mode)
		}
		fail("munmap", 0, m.MUnmap(va), 0)
		all := make([]byte, size)
		n, e := other.Pread(fd, all, 0)
		fail("last replica pread", n, e, size)
		if !bytes.Equal(all, want) {
			t.Errorf("%s: last replica preads bytes that diverge from what was written", mode)
		}
		clear(all)
		n, e = other.Seek(fd, 0, fs.SeekSet)
		fail("last replica seek", n, e, 0)
		n, e = other.Read(fd, all)
		fail("last replica read", n, e, size)
		if !bytes.Equal(all, want) {
			t.Errorf("%s: the last replica reads bytes that diverge from what was written", mode)
		}
		for dir, ents := range dirs {
			for _, ent := range ents {
				if _, e := other.Stat(strings.TrimSuffix(dir, "/") + "/" + ent); e != sys.EOK {
					t.Errorf("%s: the last replica stats %s/%s: %v", mode, dir, ent, e)
				}
			}
		}
		for i, h := range []*sys.Sys{w, other} {
			if err := h.ContractErr(); err != nil {
				t.Errorf("%s handle %d: %v", mode, i, err)
			}
		}
		if err := s.CheckReplicaAgreement(); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
		if err := s.CheckKernelInvariants(); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
		if !cfg.WAL {
			continue
		}
		fail("sync", 0, w.Sync(), 0)
		restored, err := Boot(Config{Cores: cfg.Cores, Shards: cfg.Shards, WAL: true, RestoreFS: true, BootDisk: s.BlockDev})
		if err != nil {
			t.Fatalf("%s: restore: %v", mode, err)
		}
		rh, err := restored.Init()
		if err != nil {
			t.Fatal(err)
		}
		listed(rh, "the restored kernel")
		rfd, e := rh.Open("/lent", sys.ORdOnly)
		if e != sys.EOK {
			t.Fatalf("%s: restored open: %v", mode, e)
		}
		clear(all)
		n, e = rh.Read(rfd, all)
		fail("restored read", n, e, size)
		if !bytes.Equal(all, want) {
			t.Errorf("%s: the restored kernel reads bytes that diverge from what was written", mode)
		}
	}
}
