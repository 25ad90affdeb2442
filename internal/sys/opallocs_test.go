package sys_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/verified-os/vnros/internal/core"
	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// notApplied are the logged and internal rows no kernel applies through
// sys.Kernel.DispatchWriteInto, so no combiner pass carries them.
var notApplied = map[uint64]string{
	sys.NumBatch:        "the handler applies a batch's steps, never the batch",
	sys.NumPreadMap:     "core pins the cache page and applies page_map",
	sys.NumPreadUnmap:   "core applies page_unmap and unpins the page",
	sys.NumFDGet:        "a read (DispatchReadInto)",
	sys.NumFsLookup:     "a read (DispatchReadInto)",
	sys.NumFsStatIno:    "a read (DispatchReadInto)",
	sys.NumFsReadAt:     "a read (DispatchReadInto)",
	sys.NumProcHasTable: "a read (DispatchReadInto)",
	sys.NumSockTabGet:   "a read (DispatchReadInto)",
}

// TestWarmApplyAllocations is the guard on what a combiner pass
// allocates. On each kernel — Shards 0 and 2 — it drives every row that
// kernel applies through sys.Kernel.DispatchWriteInto, straight into the
// replica of the shard the row lands on, in cycles a warm apply can
// repeat (an open with its close, a spawn with its exit and waitpid, an
// mmap with its munmap), answered into one slot as an issuer's would be.
// A row that allocates must be marked opAllocs in its op-table row; a
// row marked opAllocs that allocates on neither kernel is a stale mark.
// An open is driven on an existing file: an open that creates one pays
// the create row's inode and name. A run is driven with writes and seeks:
// a read entry without a destination answers in a reply buffer of its
// own, the batch's answer payload. Rows no kernel applies are listed,
// each with the reason.
func TestWarmApplyAllocations(t *testing.T) {
	per := map[uint64]float64{} // the most any kernel allocates per apply
	driven := map[uint64][]int{}
	for _, shards := range []int{0, 2} {
		rg := newApplyRig(t, shards)
		for _, c := range rg.cycles() {
			for num, n := range rg.measure(c) {
				per[num] = max(per[num], n)
				if !slices.Contains(driven[num], shards) {
					driven[num] = append(driven[num], shards)
				}
			}
		}
	}
	var marked []string
	for num := uint64(1); num <= sys.MaxInternalOpNum; num++ {
		if sys.OpAllocs(num) {
			marked = append(marked, fmt.Sprintf("%s (%.1f)", sys.OpName(num), per[num]))
		}
	}
	for num := uint64(1); num <= sys.MaxInternalOpNum; num++ {
		if !sys.IsLoggedOp(num) && !sys.IsInternalOp(num) {
			continue
		}
		name := sys.OpName(num)
		shapes, ok := driven[num]
		switch {
		case !ok && notApplied[num] != "":
			t.Logf("%s: not driven: %s", name, notApplied[num])
		case !ok:
			t.Errorf("%s is neither driven on a kernel nor listed as applied by none", name)
		case per[num] > 0 && !sys.OpAllocs(num):
			t.Errorf("a warm %s allocates %.1f objects per apply, and its row is not marked opAllocs; the opAllocs rows (objects per apply): %s",
				name, per[num], strings.Join(marked, ", "))
		case per[num] == 0 && sys.OpAllocs(num):
			t.Errorf("%s is marked opAllocs but a warm apply allocates nothing on shards %v", name, shapes)
		default:
			t.Logf("%s: %.1f objects per warm apply (shards %v)", name, per[num], shapes)
		}
	}
}

// applyRig is one booted kernel and what its cycles apply against: the
// kernels of every shard, init's descriptor of an 8 KiB file, and a
// child with an address space. The op and answer slots and the buffers
// are the rig's, so a cycle allocates nothing of its own.
type applyRig struct {
	t       *testing.T
	s       *core.System
	procKs  []*sys.Kernel
	fsKs    []*sys.Kernel
	init    proc.PID
	mapper  proc.PID
	ino     fs.Ino
	op      sys.WriteOp
	out     sys.Resp
	runOut  sys.Resp
	run     sys.FsRun
	data    []byte
	dst     []byte
	frames  []mem.PAddr
	fd, fd2 fs.FD
	child   proc.PID
	va      mmu.VAddr
	sock    uint64
}

// step is one apply of a cycle: the row it is, and the body that fills
// the op slot and applies it.
type step struct {
	num   uint64
	apply func()
}

func newApplyRig(t *testing.T, shards int) *applyRig {
	s, err := core.Boot(core.Config{Cores: 2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	rg := &applyRig{t: t, s: s, init: h.PID(), data: make([]byte, 512), dst: make([]byte, 512),
		frames: []mem.PAddr{128 << 20}}
	var e sys.Errno
	if rg.fd, e = h.Open("/f", sys.OCreate|sys.ORdWr); e != sys.EOK {
		t.Fatal(e)
	}
	if _, e = h.Write(rg.fd, make([]byte, 8<<10)); e != sys.EOK {
		t.Fatal(e)
	}
	st, e := h.Stat("/f")
	if e != sys.EOK {
		t.Fatal(e)
	}
	rg.ino = st.Ino
	if rg.mapper, e = h.Spawn("mapper"); e != sys.EOK {
		t.Fatal(e)
	}
	for i := range s.NumShards() {
		s.InspectProcShard(i, 0, func(k *sys.Kernel) { rg.procKs = append(rg.procKs, k) })
		s.InspectFsShard(i, 0, func(k *sys.Kernel) { rg.fsKs = append(rg.fsKs, k) })
	}
	return rg
}

// procK is the kernel of pid's process shard; tree holds the process
// tree; ns is a namespace replica; owner holds the file's contents.
func (rg *applyRig) procK(pid proc.PID) *sys.Kernel { return rg.procKs[rg.s.ProcShardOf(pid)] }
func (rg *applyRig) tree() *sys.Kernel              { return rg.procKs[0] }
func (rg *applyRig) ns() *sys.Kernel                { return rg.fsKs[0] }
func (rg *applyRig) owner() *sys.Kernel             { return rg.fsKs[rg.s.FsShardOf(rg.ino)] }

// do applies the op slot on k into the answer slot, which must succeed.
// A run answers into a slot of its own, as a co-located handler's batch
// steps do (nr.ThreadContext.ExecuteBatchInto): its per-entry results go
// into the vector the slot's last run answer left there, which a scalar
// answer in the same slot would drop.
func (rg *applyRig) do(k *sys.Kernel) *sys.Resp {
	out := &rg.out
	if rg.op.Run != nil {
		out = &rg.runOut
	}
	k.DispatchWriteInto(&rg.op, out)
	if out.Errno != sys.EOK {
		rg.t.Fatalf("%s: %v", sys.OpName(rg.op.Num), out.Errno)
	}
	return out
}

// cycles are the kernel's repeatable cycles: the co-located kernel's
// rows on its one instance, or the partitioned kernel's — the process
// shards' own rows and the protocols' steps — each on its shard.
func (rg *applyRig) cycles() [][]step {
	op := &rg.op
	memory := func(k func() *sys.Kernel) []step {
		return []step{
			{sys.NumMMap, func() {
				*op = sys.WriteOp{Num: sys.NumMMap, PID: rg.mapper, Size: mmu.L1PageSize, Frames: rg.frames}
				rg.va = mmu.VAddr(rg.do(k()).Val)
			}},
			{sys.NumMUnmap, func() { *op = sys.WriteOp{Num: sys.NumMUnmap, PID: rg.mapper, VA: rg.va}; rg.do(k()) }},
			{sys.NumPageMap, func() {
				*op = sys.WriteOp{Num: sys.NumPageMap, PID: rg.mapper, Frames: rg.frames}
				rg.va = mmu.VAddr(rg.do(k()).Val)
			}},
			{sys.NumPageUnmap, func() { *op = sys.WriteOp{Num: sys.NumPageUnmap, PID: rg.mapper, VA: rg.va}; rg.do(k()) }},
		}
	}
	sockets := []step{
		{sys.NumSockTabBind, func() {
			*op = sys.WriteOp{Num: sys.NumSockTabBind, PID: rg.init, Port: 7777}
			rg.sock = rg.do(rg.tree()).Val
		}},
		{sys.NumSockTabClose, func() { *op = sys.WriteOp{Num: sys.NumSockTabClose, PID: rg.init, Sock: rg.sock}; rg.do(rg.tree()) }},
	}
	signals := []step{
		{sys.NumKill, func() {
			*op = sys.WriteOp{Num: sys.NumKill, PID: rg.init, Target: rg.child, Sig: proc.SIGUSR1}
			rg.do(rg.tree())
		}},
		{sys.NumTakeSignal, func() { *op = sys.WriteOp{Num: sys.NumTakeSignal, PID: rg.child}; rg.do(rg.tree()) }},
	}
	waitpid := step{sys.NumWaitPID, func() { *op = sys.WriteOp{Num: sys.NumWaitPID, PID: rg.init}; rg.do(rg.tree()) }}
	namespace := func(k func() *sys.Kernel) []step {
		return []step{
			{sys.NumMkdir, func() { *op = sys.WriteOp{Num: sys.NumMkdir, Path: "/d"}; rg.do(k()) }},
			{sys.NumRmdir, func() { *op = sys.WriteOp{Num: sys.NumRmdir, Path: "/d"}; rg.do(k()) }},
			{sys.NumLink, func() { *op = sys.WriteOp{Num: sys.NumLink, Path: "/f", Path2: "/l"}; rg.do(k()) }},
			{sys.NumRename, func() { *op = sys.WriteOp{Num: sys.NumRename, Path: "/l", Path2: "/r"}; rg.do(k()) }},
			{sys.NumUnlink, func() { *op = sys.WriteOp{Num: sys.NumUnlink, Path: "/r"}; rg.do(k()) }},
		}
	}
	if !rg.s.Sharded() {
		k := func() *sys.Kernel { return rg.procKs[0] }
		entry := func(num uint64) sys.WriteOp {
			return sys.WriteOp{Num: num, PID: rg.init, FD: rg.fd2, Off: 0, Whence: fs.SeekSet, Len: 512}
		}
		descriptor := []step{
			{sys.NumOpen, func() {
				*op = sys.WriteOp{Num: sys.NumOpen, PID: rg.init, Path: "/f", Flags: uint64(sys.ORdWr)}
				rg.fd2 = fs.FD(rg.do(k()).Val)
			}},
			{sys.NumSeek, func() { *op = entry(sys.NumSeek); rg.do(k()) }},
			{sys.NumWrite, func() { *op = entry(sys.NumWrite); op.Data = rg.data; rg.do(k()) }},
			{sys.NumSeek, func() { *op = entry(sys.NumSeek); rg.do(k()) }},
			{sys.NumRead, func() { *op = entry(sys.NumRead); op.Data = rg.dst; rg.do(k()) }},
			{sys.NumFDRun, func() {
				rg.run = append(rg.run[:0], entry(sys.NumSeek), entry(sys.NumWrite), entry(sys.NumSeek))
				rg.run[1].Data = rg.data
				*op = sys.WriteOp{Num: sys.NumFDRun, PID: rg.init, FD: rg.fd2, Run: &rg.run}
				rg.do(k())
			}},
			{sys.NumTruncate, func() { *op = sys.WriteOp{Num: sys.NumTruncate, PID: rg.init, FD: rg.fd2, Len: 8 << 10}; rg.do(k()) }},
			{sys.NumClose, func() { *op = sys.WriteOp{Num: sys.NumClose, PID: rg.init, FD: rg.fd2}; rg.do(k()) }},
		}
		process := append([]step{
			{sys.NumSpawn, func() {
				*op = sys.WriteOp{Num: sys.NumSpawn, PID: rg.init, Name: "child"}
				rg.child = proc.PID(rg.do(k()).Val)
			}},
		}, signals...)
		process = append(process,
			step{sys.NumExit, func() { *op = sys.WriteOp{Num: sys.NumExit, PID: rg.child}; rg.do(k()) }},
			waitpid)
		return [][]step{descriptor, namespace(k), process, memory(k), sockets}
	}
	descriptor := []step{
		{sys.NumFDOpen, func() {
			*op = sys.WriteOp{Num: sys.NumFDOpen, PID: rg.init, Ino: rg.ino, Flags: uint64(sys.ORdWr)}
			rg.fd2 = fs.FD(rg.do(rg.procK(rg.init)).Val)
		}},
		{sys.NumFDLock, func() { *op = sys.WriteOp{Num: sys.NumFDLock, PID: rg.init, FD: rg.fd2}; rg.do(rg.procK(rg.init)) }},
		{sys.NumFDUnlock, func() { *op = sys.WriteOp{Num: sys.NumFDUnlock, PID: rg.init, FD: rg.fd2}; rg.do(rg.procK(rg.init)) }},
		{sys.NumFDSeek, func() {
			*op = sys.WriteOp{Num: sys.NumFDSeek, PID: rg.init, FD: rg.fd2, Whence: fs.SeekSet}
			rg.do(rg.procK(rg.init))
		}},
		{sys.NumClose, func() { *op = sys.WriteOp{Num: sys.NumClose, PID: rg.init, FD: rg.fd2}; rg.do(rg.procK(rg.init)) }},
	}
	entry := func(code uint64) sys.WriteOp {
		return sys.WriteOp{Num: sys.NumFsRun, PID: rg.init, Code: int(code), Ino: rg.ino, Flags: uint64(sys.ORdWr), Len: 512}
	}
	data := []step{
		{sys.NumFsRun, func() { *op = entry(sys.NumWrite); op.Data = rg.data; rg.do(rg.owner()) }},
		{sys.NumFsRun, func() { *op = entry(sys.NumRead); op.Data = rg.dst; rg.do(rg.owner()) }},
		{sys.NumFsRun, func() { *op = entry(sys.NumSeek); op.Whence = fs.SeekEnd; rg.do(rg.owner()) }},
		{sys.NumFsRun, func() {
			rg.run = append(rg.run[:0], sys.WriteOp{Num: sys.NumSeek, Whence: fs.SeekSet},
				sys.WriteOp{Num: sys.NumWrite, Data: rg.data}, sys.WriteOp{Num: sys.NumSeek, Whence: fs.SeekEnd})
			*op = entry(0)
			op.Run = &rg.run
			rg.do(rg.owner())
		}},
		{sys.NumFsTruncate, func() {
			*op = sys.WriteOp{Num: sys.NumFsTruncate, PID: rg.init, Ino: rg.ino, Len: 8 << 10}
			rg.do(rg.owner())
		}},
	}
	names := append([]step{
		{sys.NumFsCreate, func() { *op = sys.WriteOp{Num: sys.NumFsCreate, PID: rg.init, Path: "/c"}; rg.do(rg.ns()) }},
		{sys.NumUnlink, func() { *op = sys.WriteOp{Num: sys.NumUnlink, Path: "/c"}; rg.do(rg.ns()) }},
	}, namespace(rg.ns)...)
	spawn := step{sys.NumProcSpawn, func() {
		*op = sys.WriteOp{Num: sys.NumProcSpawn, PID: rg.init, Name: "child"}
		rg.child = proc.PID(rg.do(rg.tree()).Val)
	}}
	process := append([]step{spawn,
		{sys.NumProcAttach, func() {
			*op = sys.WriteOp{Num: sys.NumProcAttach, PID: rg.init, Target: rg.child}
			rg.do(rg.procK(rg.child))
		}},
	}, signals...)
	process = append(process,
		step{sys.NumProcDetach, func() {
			*op = sys.WriteOp{Num: sys.NumProcDetach, PID: rg.child, Target: rg.child}
			rg.do(rg.procK(rg.child))
		}},
		step{sys.NumProcExit, func() { *op = sys.WriteOp{Num: sys.NumProcExit, PID: rg.child}; rg.do(rg.tree()) }},
		waitpid)
	unspawn := []step{spawn,
		{sys.NumProcUnspawn, func() {
			*op = sys.WriteOp{Num: sys.NumProcUnspawn, PID: rg.init, Target: rg.child}
			rg.do(rg.tree())
		}},
	}
	mapper := func() *sys.Kernel { return rg.procK(rg.mapper) }
	return [][]step{descriptor, data, names, process, unspawn, memory(mapper), sockets}
}

// measure runs cycle c warm and returns each of its rows' objects per
// apply: for each step the integer mean over a hundred cycles, as
// testing.AllocsPerRun takes it, the least of three passes; and for a
// row the most of its steps.
func (rg *applyRig) measure(c []step) map[uint64]float64 {
	const cycles = 100
	for range 4 {
		for _, st := range c {
			st.apply()
		}
	}
	least := make([]uint64, len(c))
	mallocs := make([]uint64, len(c))
	for pass := range 3 {
		clear(mallocs)
		var before, after runtime.MemStats
		for range cycles {
			for i, st := range c {
				runtime.ReadMemStats(&before)
				st.apply()
				runtime.ReadMemStats(&after)
				mallocs[i] += after.Mallocs - before.Mallocs
			}
		}
		for i := range c {
			if pass == 0 || mallocs[i]/cycles < least[i] {
				least[i] = mallocs[i] / cycles
			}
		}
	}
	per := map[uint64]float64{}
	for i, st := range c {
		per[st.num] = max(per[st.num], float64(least[i]))
	}
	return per
}
