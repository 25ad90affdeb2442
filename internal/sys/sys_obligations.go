package sys

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/pt"
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
				// Compared by pointer: ReadOp holds a slice (Dst), so it is
				// not comparable, and boxing two values per iteration would
				// allocate them.
				var op, got ReadOp
				for i := 0; i < 1000; i++ {
					op = ReadOp{
						Num:  uint64(r.Intn(40)),
						PID:  proc.PID(r.Uint64()),
						FD:   fs.FD(r.Uint64()),
						Len:  r.Uint64(),
						Path: randPath(r),
						Off:  r.Uint64(),
						// The one internal field the frame carries.
						Witness: r.Intn(2) == 0,
					}
					frame, payload := EncodeRead(op)
					var err error
					if got, err = DecodeRead(frame, payload); err != nil {
						return err
					}
					if !reflect.DeepEqual(&got, &op) {
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
				s.EnableContract()
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
				s.EnableContract()
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
					sp.EnableContract()
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
				pidResp := k.DispatchWrite(WriteOp{Num: NumSpawn, PID: proc.InitPID, Name: "user"})
				if pidResp.Errno != EOK {
					return fmt.Errorf("spawn: %v", pidResp.Errno)
				}
				pid := proc.PID(pidResp.Val)

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

// directHandler dispatches through the codec to a single kernel, and
// serves a NumMemRead from the caller's address space as core does. It
// drains a batch the way core's co-located kernel does — the vector's
// Steps.Fold, a descriptor run being one NumFDRun transition — so what a
// batch runs is pinned against per-call dispatch (batch-refines-
// sequential), and it witnesses every checked call and step.
type directHandler struct {
	k *Kernel
	// witness is the last witnessed crossing's witnesses (Witnesser).
	witness []Witness
	// frames, when set, attaches an mmap's data frames after the decode,
	// as core does.
	frames *frameBump
}

// TakeWitness implements Witnesser.
func (h *directHandler) TakeWitness(into []Witness) []Witness {
	into = append(into, h.witness...)
	clear(h.witness)
	h.witness = h.witness[:0]
	return into
}

// keep keeps a witnessed per-call crossing's witness for TakeWitness.
func (h *directHandler) keep(w Witness) {
	h.witness = h.witness[:0]
	if w.N > 0 {
		h.witness = append(h.witness, w)
	}
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
			}
		}
		var st Steps
		st.Fold(ops)
		steps, at := st.Ops, st.At
		wits := h.witness[:0]
		for j := range steps {
			wits = CompleteStep(ops, comps, at[j], &steps[j], h.k.DispatchWrite(steps[j]), wits)
		}
		h.witness = wits
		return EncodeBatchResp(comps, EOK)
	}
	if IsReadOp(frame.Num) {
		op, err := DecodeRead(frame, payload)
		if err != nil {
			return EncodeResp(Resp{Errno: EINVAL})
		}
		resp := h.k.DispatchRead(op)
		if op.Witness {
			h.keep(resp.Witness)
		}
		return EncodeResp(resp)
	}
	op, err := DecodeWrite(frame, payload)
	if err != nil {
		return EncodeResp(Resp{Errno: EINVAL})
	}
	switch {
	case op.Num == NumMemRead:
		data, e := h.k.UserReadN(op.PID, op.VA, op.Len)
		return EncodeResp(Resp{Errno: e, Data: data})
	case op.Num == NumMMap && h.frames != nil:
		op.Frames = h.frames.take(int(op.Size / mmu.L1PageSize))
	}
	resp := h.k.DispatchWrite(op)
	if op.Witness {
		h.keep(resp.Witness)
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

// randomWriteOp draws one of the wire rows, fills the register fields,
// and gives each tail field the row carries a random value with
// probability ½ (zero otherwise), so a round trip exercises every presence
// bit of every op's tail both set and clear.
func randomWriteOp(r *rand.Rand) WriteOp {
	op := WriteOp{
		Num:  1 + uint64(r.Intn(int(MaxOpNum))),
		PID:  proc.PID(r.Uint64()),
		FD:   fs.FD(r.Uint64()),
		VA:   mmu.VAddr(r.Uint64()),
		Len:  r.Uint64(),
		Size: r.Uint64(),
	}
	for m := lookup(op.Num).tail; m != 0; m &= m - 1 {
		if r.Intn(2) == 0 {
			randomTailField(r, &op, tailFields[bits.TrailingZeros32(m)].name)
		}
	}
	return op
}

// randomTailField gives op's tail field name a random value.
func randomTailField(r *rand.Rand, op *WriteOp, name string) {
	switch name {
	case "Flags":
		op.Flags = r.Uint64()
	case "Whence":
		op.Whence = int(int64(r.Uint32()))
	case "Off":
		op.Off = int64(r.Uint64())
	case "Code":
		op.Code = int(int32(r.Uint32()))
	case "Sig":
		op.Sig = proc.Signal(r.Intn(256))
	case "Target":
		op.Target = proc.PID(r.Uint64())
	case "Path":
		op.Path = randPath(r)
	case "Path2":
		op.Path2 = randPath(r)
	case "Name":
		op.Name = randPath(r)
	case "Data":
		op.Data = randBytes(r, r.Intn(256))
	case "Sock":
		op.Sock = r.Uint64()
	case "Addr":
		op.Addr = r.Uint64()
	case "Port":
		op.Port = uint16(r.Uint32())
	case "Word":
		op.Word = r.Uint32()
	case "Witness":
		op.Witness = true
	default:
		panic("sys: no generator for write-tail field " + name)
	}
}

// randomResp gives each marshalled field past errno and value a random
// value with probability ½, so the data-less reply — the frame alone —
// turns up beside every shape of payload.
func randomResp(r *rand.Rand) Resp {
	resp := Resp{Errno: Errno(r.Intn(100)), Val: r.Uint64()}
	for _, fill := range [...]func(){
		func() { resp.Data = randBytes(r, r.Intn(256)) },
		func() {
			resp.Stat = fs.Stat{Ino: fs.Ino(r.Uint64()), Kind: fs.Kind(r.Intn(2)),
				Size: r.Uint64(), Nlink: r.Intn(10)}
		},
		func() {
			for i := 1 + r.Intn(3); i > 0; i-- {
				resp.Entries = append(resp.Entries, fs.DirEntry{
					Name: randPath(r), Ino: fs.Ino(r.Uint64()), Kind: fs.Kind(r.Intn(2))})
			}
		},
		func() { resp.Wait = proc.WaitResult{PID: proc.PID(r.Uint64()), ExitCode: int(int32(r.Uint32()))} },
		func() { resp.Sig = proc.Signal(r.Intn(256)) },
		func() { resp.SigOK = true },
	} {
		if r.Intn(2) == 0 {
			fill()
		}
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
	return op
}

func normalizeResp(r Resp) Resp {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	if len(r.Entries) == 0 {
		r.Entries = nil
	}
	return r
}
