package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/mm"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/pt"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/wal"
)

// This file is the probe stack: the layers composed by the benchmark
// itself from their public constructors, with a span-recording shim at
// every interface between them —
//
//	sys.Sys -> probeHandler (sys.Handler) -> sys.Decode*/Encode*
//	        -> nr.ThreadContext.Execute/ExecuteBatch/ExecuteRead
//	        -> kernelDS (nr.DataStructure) -> sys.Kernel -> fs.FS
//	        -> journalShim (fs.Journal) -> wal.Journal
//	        -> countingStore (fs.BlockStore) -> fs.MemBlockStore
//	        and pcache.Cache over simFrames (pcache.FrameSource)
//
// It is a single-NR kernel like core's monolith, minus devices, so a
// workload's own populate and step functions drive it through an
// ordinary *sys.Sys. Nothing in internal/* is instrumented: every span
// is recorded here, around a call into a layer's exported API.

// Span names of the probe stack.
var (
	spBoundary   = spanName("sys.boundary")
	spDecode     = spanName("sys.codec.decode")
	spEncode     = spanName("sys.codec.encode")
	spNRExecute  = spanName("nr.execute")
	spNRBatch    = spanName("nr.batch")
	spNRRead     = spanName("nr.read")
	spKernel     = spanName("sys.kernel")
	spWalRecord  = spanName("wal.record")
	spWalFlush   = spanName("wal.flush")
	spDevWrite   = spanName("dev.write")
	spPcacheRead = spanName("pcache.read")
	spPcacheFill = spanName("pcache.fill")
)

// Physical layout of the probe machine.
const (
	probeMemBytes   = 256 << 20
	probeTableBase  = mem.PAddr(1 << 20)
	probeTableEnd   = mem.PAddr(32 << 20)
	probeDataBase   = mem.PAddr(64 << 20)
	probeDiskBlocks = 1 << 16
	probeBlockSize  = 512
)

type kernelNR = nr.NR[sys.ReadOp, sys.WriteOp, sys.Resp]
type kernelCtx = nr.ThreadContext[sys.ReadOp, sys.WriteOp, sys.Resp]

// probeStack is the shared half: one kernel behind one NR instance,
// optionally journaled and page-cached.
type probeStack struct {
	t *tracer // nil: record nothing (populate, and the two-thread combiner probe)

	pmem   *mem.PhysMem
	kernel *sys.Kernel
	nr     *kernelNR

	frameMu sync.Mutex
	frames  *mm.Buddy // data frames: mmap and the page caches

	dev     *countingStore
	journal *wal.Journal
	caches  []*pcache.Cache

	// userBytes is the payload the journal shim saw (it runs under the
	// combiner); flushes counts the durability rounds threads ran.
	userBytes uint64
	flushes   atomic.Uint64

	rec *recorder // non-nil: capture decoded ops for the codec and fs probes
}

// newProbeStack composes the stack. withWAL lays a wal.Journal over a
// counting block store; caches is the number of page caches (0 = pread
// unsupported), each bounded at the kernel's default.
func newProbeStack(withWAL bool, caches int) (*probeStack, error) {
	p := &probeStack{pmem: mem.New(probeMemBytes)}
	var err error
	if p.frames, err = mm.NewBuddy(p.pmem, probeDataBase, uint64(probeMemBytes-probeDataBase)/mem.PageSize); err != nil {
		return nil, err
	}
	p.kernel = sys.NewKernel(p.pmem, pt.NewSimpleFrameSource(p.pmem, probeTableBase, probeTableEnd))
	p.nr = nr.New(nr.Options{Replicas: 1}, func() nr.DataStructure[sys.ReadOp, sys.WriteOp, sys.Resp] {
		return &kernelDS{p: p}
	})
	if withWAL {
		p.dev = &countingStore{p: p, inner: fs.NewMemBlockStore(probeBlockSize, probeDiskBlocks)}
		if p.journal, err = wal.New(p.dev, 0); err != nil {
			return nil, err
		}
		if err := p.journal.Format(); err != nil {
			return nil, err
		}
		p.kernel.FS().SetJournal(&journalShim{p: p})
	}
	for i := 0; i < caches; i++ {
		p.caches = append(p.caches, pcache.New(simFrames{p}, uint64(i), 0))
	}
	if caches > 0 {
		p.kernel.FS().SetInvalidator(cacheRouter{p})
	}
	return p, nil
}

// handle registers a thread on the NR instance and returns a syscall
// handle for pid over it.
func (p *probeStack) handle(pid proc.PID) (*sys.Sys, error) {
	ctx, err := p.nr.Register(0)
	if err != nil {
		return nil, err
	}
	return sys.NewSys(pid, &probeHandler{p: p, ctx: ctx}), nil
}

// spawn creates a process (mmap needs an address space, which init
// lacks) and returns its handle.
func (p *probeStack) spawn(name string) (*sys.Sys, error) {
	initSys, err := p.handle(proc.InitPID)
	if err != nil {
		return nil, err
	}
	pid, e := initSys.Spawn(name)
	if e != sys.EOK {
		return nil, fmt.Errorf("probe spawn: %v", e)
	}
	return p.handle(pid)
}

func (p *probeStack) cacheFor(ino fs.Ino) *pcache.Cache { return p.caches[int(ino)%len(p.caches)] }

// kernelDS is the nr.DataStructure shim around the kernel.
type kernelDS struct{ p *probeStack }

func (d *kernelDS) DispatchWrite(op sys.WriteOp) sys.Resp {
	s := d.p.t.begin(spKernel)
	r := d.p.kernel.DispatchWrite(op)
	d.p.t.end(s)
	return r
}

func (d *kernelDS) DispatchRead(op sys.ReadOp) sys.Resp {
	s := d.p.t.begin(spKernel)
	r := d.p.kernel.DispatchRead(op)
	d.p.t.end(s)
	return r
}

// journalShim is the fs.Journal sink between fs and wal.
type journalShim struct{ p *probeStack }

func (j *journalShim) Record(m fs.Mutation) {
	s := j.p.t.begin(spWalRecord)
	j.p.journal.Record(m)
	j.p.t.end(s)
	j.p.userBytes += uint64(len(m.Data))
}

// countingStore is the fs.BlockStore shim under the journal.
type countingStore struct {
	p            *probeStack // nil outside the probe stack (the walshard probe)
	inner        fs.BlockStore
	mu           sync.Mutex
	writes       uint64
	bytesWritten uint64
}

func (c *countingStore) BlockSize() int    { return c.inner.BlockSize() }
func (c *countingStore) NumBlocks() uint64 { return c.inner.NumBlocks() }

func (c *countingStore) ReadBlock(i uint64, b []byte) error { return c.inner.ReadBlock(i, b) }

func (c *countingStore) WriteBlock(i uint64, b []byte) error {
	var s int32 = -1
	if c.p != nil {
		s = c.p.t.begin(spDevWrite)
	}
	err := c.inner.WriteBlock(i, b)
	if c.p != nil {
		c.p.t.end(s)
	}
	c.mu.Lock() // shard journals flush concurrently
	c.writes++
	c.bytesWritten += uint64(len(b))
	c.mu.Unlock()
	return err
}

// simFrames is the pcache.FrameSource over the probe machine's memory.
type simFrames struct{ p *probeStack }

func (f simFrames) AllocFrame() (mem.PAddr, error) {
	f.p.frameMu.Lock()
	defer f.p.frameMu.Unlock()
	return f.p.frames.AllocOrder(0)
}

func (f simFrames) FreeFrame(a mem.PAddr) {
	f.p.frameMu.Lock()
	defer f.p.frameMu.Unlock()
	_ = f.p.frames.Free(a) // the cache frees only frames it allocated here
}

func (f simFrames) WriteFrame(a mem.PAddr, off uint64, b []byte) {
	_ = f.p.pmem.Write(a+mem.PAddr(off), b) // in range by construction
}

func (f simFrames) ReadFrame(a mem.PAddr, off uint64, b []byte) {
	_ = f.p.pmem.Read(a+mem.PAddr(off), b)
}

// cacheRouter is the fs.Invalidator: it forwards a mutation's kill to
// the cache that owns the inode, as core does per fs shard.
type cacheRouter struct{ p *probeStack }

func (r cacheRouter) InvalidateRange(ino fs.Ino, lo, hi uint64) {
	r.p.cacheFor(ino).InvalidateRange(ino, lo, hi)
}

func (r cacheRouter) InvalidateIno(ino fs.Ino) { r.p.cacheFor(ino).InvalidateIno(ino) }

// probeHandler is the per-thread half: the sys.Handler a Sys handle
// crosses into. It mirrors core's monolithic dispatch for the ops the
// workloads issue.
type probeHandler struct {
	p   *probeStack
	ctx *kernelCtx
}

func (h *probeHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	t := h.p.t
	b := t.begin(spBoundary)
	defer t.end(b)
	if frame.Num == sys.NumBatch {
		return h.batch(frame, payload)
	}
	if sys.IsReadOp(frame.Num) {
		d := t.begin(spDecode)
		op, err := sys.DecodeRead(frame, payload)
		t.end(d)
		if err != nil {
			return sys.EncodeResp(sys.Resp{Errno: sys.EINVAL})
		}
		var r sys.Resp
		if op.Num == sys.NumPread && len(h.p.caches) > 0 {
			r = h.pread(op)
		} else {
			r = h.read(op)
		}
		h.p.rec.read(op, r)
		return h.encode(r)
	}
	d := t.begin(spDecode)
	op, err := sys.DecodeWrite(frame, payload)
	t.end(d)
	if err != nil {
		return sys.EncodeResp(sys.Resp{Errno: sys.EINVAL})
	}
	var r sys.Resp
	switch op.Num {
	case sys.NumSync:
		r = h.sync()
	case sys.NumMMap:
		r = h.mmap(op)
	default:
		r = h.execute(op)
		if r.Errno == sys.EOK && len(r.Freed) > 0 {
			h.free(r.Freed)
		}
	}
	h.p.rec.write(op, r)
	return h.encode(r)
}

func (h *probeHandler) encode(r sys.Resp) (marshal.RetFrame, []byte) {
	e := h.p.t.begin(spEncode)
	ret, out := sys.EncodeResp(r)
	h.p.t.end(e)
	return ret, out
}

func (h *probeHandler) execute(op sys.WriteOp) sys.Resp {
	s := h.p.t.begin(spNRExecute)
	r := h.ctx.Execute(op)
	h.p.t.end(s)
	return r
}

func (h *probeHandler) read(op sys.ReadOp) sys.Resp {
	s := h.p.t.begin(spNRRead)
	r := h.ctx.ExecuteRead(op)
	h.p.t.end(s)
	return r
}

// mmap attaches data frames before logging, as core does, so the op is
// deterministic by the time it reaches the log.
func (h *probeHandler) mmap(op sys.WriteOp) sys.Resp {
	if op.Size == 0 || op.Size%mmu.L1PageSize != 0 {
		return sys.Resp{Errno: sys.EINVAL}
	}
	h.p.frameMu.Lock()
	for i := uint64(0); i < op.Size/mmu.L1PageSize; i++ {
		f, err := h.p.frames.AllocOrder(0)
		if err != nil {
			h.p.frameMu.Unlock()
			h.free(op.Frames)
			return sys.Resp{Errno: sys.ENOMEM}
		}
		op.Frames = append(op.Frames, f)
	}
	h.p.frameMu.Unlock()
	r := h.execute(op)
	if r.Errno != sys.EOK {
		h.free(op.Frames)
	}
	return r
}

func (h *probeHandler) free(frames []mem.PAddr) {
	h.p.frameMu.Lock()
	defer h.p.frameMu.Unlock()
	for _, f := range frames {
		_ = h.p.frames.Free(f) // frames the kernel handed back came from this allocator
	}
}

// sync is the durability action: one journal flush, escalating to a
// checkpoint when the record area is full (core's syncDurable).
func (h *probeHandler) sync() sys.Resp {
	if h.p.journal == nil {
		return sys.Resp{Errno: sys.ENOSYS}
	}
	s := h.p.t.begin(spWalFlush)
	defer h.p.t.end(s)
	var err error
	h.p.nr.Replica(0).Inspect(func(nr.DataStructure[sys.ReadOp, sys.WriteOp, sys.Resp]) {
		h.p.flushes.Add(1)
		if err = h.p.journal.Flush(); errors.Is(err, wal.ErrJournalFull) {
			err = h.p.journal.Checkpoint(h.p.kernel.FS())
		}
	})
	if err != nil {
		return sys.Resp{Errno: sys.EIO}
	}
	return sys.Resp{Errno: sys.EOK}
}

// pread resolves the descriptor with one replica-local read and serves
// the bytes from the inode's cache; a miss fills through NumFsReadAt.
func (h *probeHandler) pread(op sys.ReadOp) sys.Resp {
	g := h.read(sys.ReadOp{Num: sys.NumFDGet, PID: op.PID, FD: op.FD})
	if g.Errno != sys.EOK {
		return g
	}
	buf := make([]byte, op.Len)
	s := h.p.t.begin(spPcacheRead)
	n, e := h.p.cacheFor(g.Ino).ReadAt(g.Ino, op.Off, buf, func(ino fs.Ino, off uint64, b []byte) (int, sys.Errno) {
		f := h.p.t.begin(spPcacheFill)
		defer h.p.t.end(f)
		r := h.read(sys.ReadOp{Num: sys.NumFsReadAt, PID: op.PID, Ino: ino, Off: off, Len: uint64(len(b))})
		if r.Errno != sys.EOK {
			return 0, r.Errno
		}
		copy(b, r.Data)
		return int(r.Val), sys.EOK
	}, 0)
	h.p.t.end(s)
	if e != sys.EOK {
		return sys.Resp{Errno: e}
	}
	return sys.Resp{Errno: sys.EOK, Val: uint64(n), Data: buf[:n]}
}

// batch drains one submission vector: one ExecuteBatch for the logged
// ops, then one durability action for however many sync markers.
func (h *probeHandler) batch(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	t := h.p.t
	d := t.begin(spDecode)
	ops, err := sys.DecodeBatch(frame, payload)
	t.end(d)
	if err != nil {
		return sys.EncodeBatchResp(nil, sys.EINVAL)
	}
	comps := make([]sys.Completion, len(ops))
	run := make([]sys.WriteOp, 0, len(ops))
	idx := make([]int, 0, len(ops))
	syncs := false
	for i := range ops {
		switch {
		case sys.IsBatchableOp(ops[i].Num):
			run = append(run, ops[i])
			idx = append(idx, i)
		case ops[i].Num == sys.NumSync:
			syncs = true
		default:
			comps[i] = sys.Completion{Op: ops[i].Num, Errno: sys.ENOSYS}
		}
	}
	if len(run) > 0 {
		s := t.begin(spNRBatch)
		resps := h.ctx.ExecuteBatch(run)
		t.end(s)
		for j, r := range resps {
			comps[idx[j]] = sys.BatchCompletion(run[j], r)
		}
	}
	if syncs {
		e := h.sync().Errno
		for i := range ops {
			if ops[i].Num == sys.NumSync {
				comps[i] = sys.Completion{Op: sys.NumSync, Errno: e}
			}
		}
	}
	h.p.rec.batch(ops, comps)
	e := t.begin(spEncode)
	ret, out := sys.EncodeBatchResp(comps, sys.EOK)
	t.end(e)
	return ret, out
}

// recorder captures the decoded ops and responses that crossed the
// probe boundary, so the codec and fs probes can replay exactly the
// wire traffic of the workload's stream without the layers between.
type recorder struct {
	timed   bool // false while populating
	samples []wireSample
}

// wireSample is one boundary crossing. Response payloads are dropped to
// their length (data), so a recording of 4 KiB reads stays small.
type wireSample struct {
	timed bool
	write *sys.WriteOp
	read  *sys.ReadOp
	resp  sys.Resp
	data  int
	ops   []sys.WriteOp // batch
	comps []sys.Completion
}

func (r *recorder) write(op sys.WriteOp, resp sys.Resp) {
	if r == nil {
		return
	}
	n := len(resp.Data)
	resp.Data = nil
	r.samples = append(r.samples, wireSample{timed: r.timed, write: &op, resp: resp, data: n})
}

func (r *recorder) read(op sys.ReadOp, resp sys.Resp) {
	if r == nil {
		return
	}
	n := len(resp.Data)
	resp.Data = nil
	r.samples = append(r.samples, wireSample{timed: r.timed, read: &op, resp: resp, data: n})
}

func (r *recorder) batch(ops []sys.WriteOp, comps []sys.Completion) {
	if r == nil {
		return
	}
	r.samples = append(r.samples, wireSample{timed: r.timed, ops: ops, comps: comps})
}
