package sys

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/pt"
	"github.com/verified-os/vnros/internal/sched"
	"github.com/verified-os/vnros/internal/verifier"
)

// RegisterObligations registers the syscall-layer verification
// conditions: codec round trips (the §3 marshalling obligation for the
// actual syscall ABI), transparency of the boundary (marshalled calls
// behave exactly like direct dispatch), the read_spec contract on the
// full path, and memory-mapping semantics.
func RegisterObligations(g *verifier.Registry) {
	registerMoreObligations(g)
	registerEvenMoreObligations(g)
	registerRingObligations(g)
	registerSyncObligations(g)
	g.Register(
		verifier.Obligation{Module: "sys", Name: "writeop-round-trip", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				for i := 0; i < 1000; i++ {
					op := randomWriteOp(r)
					frame, payload := EncodeWrite(op)
					got, err := DecodeWrite(frame, payload)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(normalizeOp(op), normalizeOp(got)) {
						return fmt.Errorf("write op round trip mismatch:\n  in  %+v\n  out %+v", op, got)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "readop-round-trip", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				for i := 0; i < 1000; i++ {
					op := ReadOp{
						Num:  uint64(r.Intn(40)),
						PID:  proc.PID(r.Uint64()),
						FD:   fs.FD(r.Uint64()),
						VA:   mmu.VAddr(r.Uint64()),
						Len:  r.Uint64(),
						TID:  sched.TID(r.Uint64()),
						Path: randPath(r),
						Off:  r.Uint64(),
					}
					frame, payload := EncodeRead(op)
					got, err := DecodeRead(frame, payload)
					if err != nil {
						return err
					}
					if got != op {
						return fmt.Errorf("read op round trip mismatch")
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "resp-round-trip", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				for i := 0; i < 1000; i++ {
					resp := randomResp(r)
					ret, payload := EncodeResp(resp)
					got, err := DecodeResp(ret, payload)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(got)) {
						return fmt.Errorf("resp round trip mismatch:\n  in  %+v\n  out %+v", resp, got)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "boundary-transparent", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				// The same op stream through (a) direct kernel dispatch
				// and (b) the marshalled Sys boundary must produce
				// identical results.
				kA := newTestKernel()
				kB := newTestKernel()
				h := &directHandler{k: kB}
				s := NewSys(proc.InitPID, h)

				if _, err := kA.fs.Create("/f"); err != nil {
					return err
				}
				if e := s.Mkdir("/tmp"); e != EOK {
					return fmt.Errorf("mkdir via boundary: %v", e)
				}
				if _, err := kA.fs.Mkdir("/tmp"); err != nil {
					return err
				}
				fdB, e := s.Open("/data", fs.OCreate|fs.ORdWr)
				if e != EOK {
					return fmt.Errorf("open: %v", e)
				}
				respA := kA.DispatchWrite(WriteOp{Num: NumOpen, PID: proc.InitPID, Path: "/data", Flags: fs.OCreate | fs.ORdWr})
				if respA.Errno != EOK || fs.FD(respA.Val) != fdB {
					return fmt.Errorf("fd diverged: %v vs %v", respA.Val, fdB)
				}
				payload := make([]byte, 100+r.Intn(400))
				r.Read(payload)
				if n, e := s.Write(fdB, payload); e != EOK || n != uint64(len(payload)) {
					return fmt.Errorf("write: %d, %v", n, e)
				}
				kA.DispatchWrite(WriteOp{Num: NumWrite, PID: proc.InitPID, FD: fs.FD(respA.Val), Data: payload})
				if _, e := s.Seek(fdB, 0, fs.SeekSet); e != EOK {
					return fmt.Errorf("seek: %v", e)
				}
				kA.DispatchWrite(WriteOp{Num: NumSeek, PID: proc.InitPID, FD: fs.FD(respA.Val), Whence: fs.SeekSet})
				buf := make([]byte, len(payload))
				if _, e := s.Read(fdB, buf); e != EOK || !bytes.Equal(buf, payload) {
					return fmt.Errorf("read through boundary diverged")
				}
				// Final kernel states agree (B additionally created /f? no
				// — A created /f directly; mirror it through the boundary).
				stA, _ := kA.fs.StatPath("/data")
				stB, e := s.Stat("/data")
				if e != EOK || stA.Size != stB.Size || stA.Kind != stB.Kind {
					return fmt.Errorf("stat diverged: %+v vs %+v", stA, stB)
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "read-contract-full-path", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				k := newTestKernel()
				s := NewSys(proc.InitPID, &directHandler{k: k})
				s.EnableContract(k)
				fd, e := s.Open("/c", fs.OCreate|fs.ORdWr)
				if e != EOK {
					return fmt.Errorf("open: %v", e)
				}
				for i := 0; i < 200; i++ {
					switch r.Intn(3) {
					case 0:
						data := make([]byte, r.Intn(100))
						r.Read(data)
						if _, e := s.Write(fd, data); e != EOK {
							return fmt.Errorf("write: %v", e)
						}
					case 1:
						if _, e := s.Read(fd, make([]byte, r.Intn(100))); e != EOK {
							return fmt.Errorf("read: %v", e)
						}
					default:
						if _, e := s.Seek(fd, int64(r.Intn(200))-50, r.Intn(3)); e != EOK && e != EINVAL {
							return fmt.Errorf("seek: %v", e)
						}
					}
				}
				return s.ContractErr()
			}},
		verifier.Obligation{Module: "sys", Name: "contract-catches-broken-kernel", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				k := newTestKernel()
				h := &corruptingHandler{directHandler{k: k}}
				s := NewSys(proc.InitPID, h)
				s.EnableContract(k)
				fd, e := s.Open("/x", fs.OCreate|fs.ORdWr)
				if e != EOK {
					return fmt.Errorf("open: %v", e)
				}
				if _, e := s.Write(fd, []byte("sensitive")); e != EOK {
					return fmt.Errorf("write: %v", e)
				}
				if _, e := s.Seek(fd, 0, fs.SeekSet); e != EOK {
					return fmt.Errorf("seek: %v", e)
				}
				buf := make([]byte, 9)
				_, _ = s.Read(fd, buf)
				if s.ContractErr() == nil {
					return fmt.Errorf("contract checker missed corrupted read data")
				}
				// The destination crossing delivers into the caller's buffer
				// and reports a bare count: a kernel broken there is caught by
				// the same positioned-read check, on what was delivered. Each
				// fault gets its own handle (a handle keeps its first
				// violation) over the same kernel and descriptor.
				for _, f := range []destFault{destHonest, destWrongBytes, destShortCount, destLongCount} {
					sp := NewSys(proc.InitPID, &destHandler{directHandler: directHandler{k: k}, fault: f})
					sp.EnableContract(k)
					if n, e := sp.Pread(fd, buf[:6], 2); e != EOK {
						return fmt.Errorf("pread (fault %d): n=%d %v", f, n, e)
					}
					err := sp.ContractErr()
					switch {
					case f == destHonest && err != nil:
						return fmt.Errorf("honest destination pread flagged: %w", err)
					case f == destHonest && string(buf[:6]) != "nsitiv":
						return fmt.Errorf("honest destination pread delivered %q", buf[:6])
					case f != destHonest && (err == nil || !strings.Contains(err.Error(), "pread")):
						return fmt.Errorf("contract checker missed destination fault %d (ContractErr: %v)", f, err)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "mmap-memory-semantics", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				k, dataFrames := newTestKernelFrames()
				s := NewSys(proc.InitPID, &directHandler{k: k})
				pidResp := k.DispatchWrite(WriteOp{Num: NumSpawn, PID: proc.InitPID, Name: "user"})
				if pidResp.Errno != EOK {
					return fmt.Errorf("spawn: %v", pidResp.Errno)
				}
				pid := proc.PID(pidResp.Val)
				su := NewSys(pid, &directHandler{k: k})
				_ = s

				// mmap 4 pages with caller-provided frames (as core does).
				frames := dataFrames.take(4)
				resp := k.DispatchWrite(WriteOp{Num: NumMMap, PID: pid, Size: 4 * mmu.L1PageSize, Frames: frames})
				if resp.Errno != EOK {
					return fmt.Errorf("mmap: %v", resp.Errno)
				}
				base := mmu.VAddr(resp.Val)

				// The process's view: write then read through the MMU path.
				blob := make([]byte, 3*mmu.L1PageSize)
				r.Read(blob)
				if e := k.UserWrite(pid, base+100, blob); e != EOK {
					return fmt.Errorf("user write: %v", e)
				}
				got := make([]byte, len(blob))
				if e := k.UserRead(pid, base+100, got); e != EOK {
					return fmt.Errorf("user read: %v", e)
				}
				if !bytes.Equal(got, blob) {
					return fmt.Errorf("user memory round trip mismatch")
				}
				// Resolve agrees with the walk.
				if _, e := su.MemResolve(base); e != EOK {
					return fmt.Errorf("resolve: %v", e)
				}
				// munmap returns all frames and unmaps.
				resp = k.DispatchWrite(WriteOp{Num: NumMUnmap, PID: pid, VA: base})
				if resp.Errno != EOK || len(resp.Freed) != 4 {
					return fmt.Errorf("munmap: %v, freed %d", resp.Errno, len(resp.Freed))
				}
				if e := k.UserRead(pid, base, make([]byte, 8)); e != EFAULT {
					return fmt.Errorf("read after munmap: %v, want EFAULT", e)
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "exit-reclaims-process-memory", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				k, dataFrames := newTestKernelFrames()
				pidResp := k.DispatchWrite(WriteOp{Num: NumSpawn, PID: proc.InitPID, Name: "leaky"})
				pid := proc.PID(pidResp.Val)
				frames := dataFrames.take(8)
				resp := k.DispatchWrite(WriteOp{Num: NumMMap, PID: pid, Size: 8 * mmu.L1PageSize, Frames: frames})
				if resp.Errno != EOK {
					return fmt.Errorf("mmap: %v", resp.Errno)
				}
				resp = k.DispatchWrite(WriteOp{Num: NumExit, PID: pid, Code: 0})
				if resp.Errno != EOK {
					return fmt.Errorf("exit: %v", resp.Errno)
				}
				if len(resp.Freed) != 8 {
					return fmt.Errorf("exit freed %d frames, want 8", len(resp.Freed))
				}
				if _, ok := k.Root(pid); ok {
					return fmt.Errorf("address space survived exit")
				}
				return nil
			}},
	)
}

// newTestKernel builds a kernel over fresh memory with a simple frame
// source.
func newTestKernel() *Kernel {
	k, _ := newTestKernelFrames()
	return k
}

// newTestKernelFrames also returns the kernel's data-frame allocator
// (standing in for core's shared data allocator). It belongs to the one
// check that built the kernel, so verifier pool workers share nothing.
func newTestKernelFrames() (*Kernel, *frameBump) {
	pmem := mem.New(128 << 20)
	tables := pt.NewSimpleFrameSource(pmem, 0x10_0000, 16<<20)
	return NewKernel(pmem, tables), &frameBump{next: 32 << 20}
}

// frameBump hands out data frames from the region above the table area.
type frameBump struct{ next mem.PAddr }

func (b *frameBump) take(n int) []mem.PAddr {
	out := make([]mem.PAddr, n)
	for i := range out {
		out[i] = b.next
		b.next += mem.PageSize
	}
	return out
}

// directHandler dispatches through the codec to a single kernel.
type directHandler struct {
	k *Kernel
	// witness is the last witnessed op's Resp.Witness (Witnesser).
	witness *Witness
}

// TakeWitness implements Witnesser.
func (h *directHandler) TakeWitness() *Witness {
	w := h.witness
	h.witness = nil
	return w
}

// Syscall implements Handler.
func (h *directHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	if frame.Num == NumBatch {
		ops, err := DecodeBatch(frame, payload)
		if err != nil {
			return EncodeBatchResp(nil, EINVAL)
		}
		comps := make([]Completion, len(ops))
		for i, op := range ops {
			if !IsBatchableOp(op.Num) {
				comps[i] = Completion{Op: op.Num, Errno: ENOSYS}
				continue
			}
			comps[i] = BatchCompletion(op, h.k.DispatchWrite(op))
		}
		return EncodeBatchResp(comps, EOK)
	}
	if IsReadOp(frame.Num) {
		op, err := DecodeRead(frame, payload)
		if err != nil {
			return EncodeResp(Resp{Errno: EINVAL})
		}
		return EncodeResp(h.k.DispatchRead(op))
	}
	op, err := DecodeWrite(frame, payload)
	if err != nil {
		return EncodeResp(Resp{Errno: EINVAL})
	}
	resp := h.k.DispatchWrite(op)
	if op.Witness {
		h.witness = resp.Witness
	}
	return EncodeResp(resp)
}

// corruptingHandler flips a byte in read results — the broken kernel
// the contract checker must catch.
type corruptingHandler struct {
	directHandler
}

func (h *corruptingHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	ret, out := h.directHandler.Syscall(frame, payload)
	if frame.Num == NumRead && ret.Errno == 0 {
		resp, err := DecodeResp(ret, out)
		if err == nil && len(resp.Data) > 0 {
			resp.Data[0] ^= 0xff
			return EncodeResp(resp)
		}
	}
	return ret, out
}

// destHandler gives a directHandler the destination capability
// (DestHandler) with a selectable fault between the kernel's answer and
// what lands in the caller's buffer.
type destHandler struct {
	directHandler
	fault destFault
}

type destFault int

const (
	destHonest destFault = iota
	destWrongBytes
	destShortCount
	destLongCount
)

func (h *destHandler) SyscallInto(frame marshal.SyscallFrame, payload []byte, dst []byte) marshal.RetFrame {
	ret, out := h.directHandler.Syscall(frame, payload)
	r, err := DecodeResp(ret, out)
	if err != nil || r.Errno != EOK {
		return ret
	}
	n := uint64(copy(dst, r.Data))
	switch h.fault {
	case destWrongBytes:
		dst[n-1] ^= 0xff
	case destShortCount:
		n--
	case destLongCount:
		n++
	}
	return marshal.RetFrame{Value: n, Errno: uint64(EOK)}
}

// lyingHandler lets the kernel apply ops of one syscall number and then
// reports them failed — from the client's side, a kernel that mutates
// state on a transition it says did not happen.
type lyingHandler struct {
	directHandler
	num   uint64
	errno Errno
}

func (h *lyingHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	ret, out := h.directHandler.Syscall(frame, payload)
	if frame.Num == h.num && ret.Errno == 0 {
		return EncodeResp(Resp{Errno: h.errno})
	}
	return ret, out
}

func randomWriteOp(r *rand.Rand) WriteOp {
	op := WriteOp{
		Num:    uint64(r.Intn(40)),
		PID:    proc.PID(r.Uint64()),
		FD:     fs.FD(r.Uint64()),
		VA:     mmu.VAddr(r.Uint64()),
		Len:    r.Uint64(),
		Size:   r.Uint64(),
		TID:    sched.TID(r.Uint64()),
		Flags:  r.Uint64(),
		Whence: int(int64(r.Uint32())),
		Off:    int64(r.Uint64()),
		Code:   int(int32(r.Uint32())),
		Sig:    proc.Signal(r.Intn(256)),
		Target: proc.PID(r.Uint64()),
		Pri:    sched.Priority(r.Intn(256)),
		Core:   int(int32(r.Uint32())),
		Path:   randPath(r),
		Path2:  randPath(r),
		Name:   randPath(r),
		Sock:   r.Uint64(),
		Addr:   r.Uint64(),
		Port:   uint16(r.Uint32()),
		Word:   r.Uint32(),
	}
	if r.Intn(2) == 0 {
		op.Data = make([]byte, r.Intn(256))
		r.Read(op.Data)
	}
	for i := 0; i < r.Intn(5); i++ {
		op.Frames = append(op.Frames, mem.PAddr(r.Uint64()))
	}
	op.Witness = r.Intn(2) == 0
	return op
}

func randomResp(r *rand.Rand) Resp {
	resp := Resp{
		Errno: Errno(r.Intn(100)),
		Val:   r.Uint64(),
		Stat: fs.Stat{Ino: fs.Ino(r.Uint64()), Kind: fs.Kind(r.Intn(2)),
			Size: r.Uint64(), Nlink: r.Intn(10)},
		Wait:  proc.WaitResult{PID: proc.PID(r.Uint64()), ExitCode: int(int32(r.Uint32()))},
		TID:   sched.TID(r.Uint64()),
		Sig:   proc.Signal(r.Intn(256)),
		SigOK: r.Intn(2) == 0,
	}
	if r.Intn(2) == 0 {
		resp.Data = make([]byte, r.Intn(256))
		r.Read(resp.Data)
	}
	for i := 0; i < r.Intn(4); i++ {
		resp.Entries = append(resp.Entries, fs.DirEntry{
			Name: randPath(r), Ino: fs.Ino(r.Uint64()), Kind: fs.Kind(r.Intn(2))})
	}
	for i := 0; i < r.Intn(4); i++ {
		resp.Freed = append(resp.Freed, mem.PAddr(r.Uint64()))
	}
	return resp
}

func randPath(r *rand.Rand) string {
	const chars = "abcdefghij/._-"
	n := r.Intn(30)
	b := make([]byte, n)
	for i := range b {
		b[i] = chars[r.Intn(len(chars))]
	}
	return string(b)
}

// normalizeOp maps nil and empty slices to a canonical form for
// comparison (the wire format does not distinguish them).
func normalizeOp(op WriteOp) WriteOp {
	if len(op.Data) == 0 {
		op.Data = nil
	}
	if len(op.Frames) == 0 {
		op.Frames = nil
	}
	return op
}

func normalizeResp(r Resp) Resp {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	if len(r.Entries) == 0 {
		r.Entries = nil
	}
	if len(r.Freed) == 0 {
		r.Freed = nil
	}
	return r
}
