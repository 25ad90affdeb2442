package sys

import (
	"fmt"

	"github.com/verified-os/vnros/internal/fs"
)

// This file is the batched syscall submission ring — an io_uring-shaped
// surface over the NR combiner. A program enqueues N encoded ops (the
// submission queue), crosses the boundary once with a NumBatch frame,
// the kernel drains the vector in the fewest combiner rounds its shape
// allows — on the monolith one round for the whole vector (one log
// reservation, one combine pass); on the sharded kernel one owner-shard
// round per descriptor run, between the lock and unlock rounds on the
// process shard — and the completions come back as an ordered completion
// queue. Both kernels fold the vector into the same steps (BatchSteps):
// a descriptor run, adjacent reads, writes and seeks on one descriptor,
// is one transition.
//
// Contract checking stays on, with the per-call mechanism: a checked
// batch's read, write, seek and pread entries ask for witnesses, the
// kernel takes one per transition — per run, per other entry — at its
// linearization point, and Sys checks each over the entries it covers
// (checkWitnessed in sys.go), replaying only a run's interior states.

// Op is one submission-queue entry. Ops are built by the Op*
// constructors only — the wrapped WriteOp stays unexported so every Op
// that can exist is batchable and well-formed. The byte and string
// payloads are borrowed until the batch completes.
type Op struct {
	w WriteOp
}

// Num returns the syscall number the entry encodes.
func (o Op) Num() uint64 { return o.w.Num }

// OpOpen enqueues open(path, flags). The flag set is validated at
// submission, like Sys.Open.
func OpOpen(path string, flags OpenFlag) Op {
	return Op{w: WriteOp{Num: NumOpen, Path: path, Flags: uint64(flags)}}
}

// OpClose enqueues close(fd).
func OpClose(fd fs.FD) Op { return Op{w: WriteOp{Num: NumClose, FD: fd}} }

// OpRead enqueues read(fd, n); the bytes come back in the completion's
// Data.
func OpRead(fd fs.FD, n uint64) Op { return Op{w: WriteOp{Num: NumRead, FD: fd, Len: n}} }

// OpWrite enqueues write(fd, data).
func OpWrite(fd fs.FD, data []byte) Op { return Op{w: WriteOp{Num: NumWrite, FD: fd, Data: data}} }

// OpPread enqueues pread(fd, n, off): a positioned read that leaves the
// descriptor offset untouched. In a batch the kernel serves it from the
// page cache after the batch's logged ops complete, so it observes every
// write in the same batch (earlier or later — positioned reads carry no
// submission-order guarantee against their own batch's writes).
func OpPread(fd fs.FD, n, off uint64) Op {
	return Op{w: WriteOp{Num: NumPread, FD: fd, Len: n, Off: int64(off)}}
}

// OpPreadMap enqueues the zero-copy positioned read: the completion's
// Val is the mapping's base VA (release it with Sys.PreadUnmap).
// EAGAIN completes the entry when no cached page is available.
func OpPreadMap(fd fs.FD, off uint64) Op {
	return Op{w: WriteOp{Num: NumPreadMap, FD: fd, Off: int64(off)}}
}

// OpSeek enqueues seek(fd, off, whence).
func OpSeek(fd fs.FD, off int64, whence int) Op {
	return Op{w: WriteOp{Num: NumSeek, FD: fd, Off: off, Whence: whence}}
}

// OpTruncate enqueues truncate(fd, size).
func OpTruncate(fd fs.FD, size uint64) Op {
	return Op{w: WriteOp{Num: NumTruncate, FD: fd, Len: size}}
}

// OpMkdir enqueues mkdir(path).
func OpMkdir(path string) Op { return Op{w: WriteOp{Num: NumMkdir, Path: path}} }

// OpUnlink enqueues unlink(path).
func OpUnlink(path string) Op { return Op{w: WriteOp{Num: NumUnlink, Path: path}} }

// OpRmdir enqueues rmdir(path).
func OpRmdir(path string) Op { return Op{w: WriteOp{Num: NumRmdir, Path: path}} }

// OpRename enqueues rename(old, new).
func OpRename(old, new string) Op { return Op{w: WriteOp{Num: NumRename, Path: old, Path2: new}} }

// OpLink enqueues link(old, new).
func OpLink(old, new string) Op { return Op{w: WriteOp{Num: NumLink, Path: old, Path2: new}} }

// OpSync enqueues sync(). In a batch it acts as a group-commit marker:
// the kernel applies every op of the batch, then makes the whole batch
// durable with one journal flush before completing the sync entries.
func OpSync() Op { return Op{w: WriteOp{Num: NumSync}} }

// OpSockBind enqueues sock_bind(port) with a receive budget (0 =
// default); the completion's Val is the socket id. Port 0 requests an
// ephemeral port.
func OpSockBind(port Port, budget uint32) Op {
	return Op{w: WriteOp{Num: NumSockBind, Port: uint16(port), Word: budget}}
}

// OpSockSend enqueues sock_send(sock → addr:port); the completion's Val
// is the accepted byte count. The socket id and destination port are
// validated at submission, like open flags.
func OpSockSend(sock SockID, addr NetAddr, port Port, payload []byte) Op {
	return Op{w: WriteOp{Num: NumSockSend, Sock: uint64(sock), Addr: uint64(addr), Port: uint16(port), Data: payload}}
}

// OpSockRecv enqueues a non-blocking receive; the completion's Data is
// the datagram payload and Completion.SockFrom carries the source.
// EAGAIN completes the entry when the queue is empty.
func OpSockRecv(sock SockID) Op { return Op{w: WriteOp{Num: NumSockRecv, Sock: uint64(sock)}} }

// OpSockClose enqueues sock_close(sock); the completion's Val is the
// released port.
func OpSockClose(sock SockID) Op { return Op{w: WriteOp{Num: NumSockClose, Sock: uint64(sock)}} }

// validate is the boundary check run at batch submission: a
// structurally invalid op fails the whole submission before a frame is
// built, mirroring the scalar syscalls' argument validation.
func (o Op) validate() Errno {
	switch o.w.Num {
	case NumOpen:
		return OpenFlag(o.w.Flags).Validate()
	case NumSockSend:
		if e := SockID(o.w.Sock).Validate(); e != EOK {
			return e
		}
		return Port(o.w.Port).Validate()
	case NumSockRecv, NumSockClose:
		return SockID(o.w.Sock).Validate()
	}
	return EOK
}

// Completion is one completion-queue entry, in submission order.
type Completion struct {
	Op    uint64 // syscall number of the submitted op
	Errno Errno
	Val   uint64 // the op's scalar result (fd, count, offset, ...)
	Data  []byte // read payload, when the op returns bytes
}

// Err returns nil for a successful completion, the Errno otherwise.
func (c Completion) Err() error { return c.Errno.Err() }

// BatchCompletion projects a kernel response onto the completion-queue
// entry for the given submitted op (the kernel side of the CQ).
func BatchCompletion(op WriteOp, r Resp) Completion {
	return Completion{Op: op.Num, Errno: r.Errno, Val: r.Val, Data: r.Data}
}

// submitChunk carries one submission-queue segment across the boundary
// in a single NumBatch frame and checks the §3 contract over it. It holds
// the handle for the crossing, like a per-call Read or Write: the
// handler's witness slot is one per handle, and a batch's witnesses are
// taken as it returns. Ops are assumed boundary-validated (see
// Batch.Submit); the ring drainer in submit.go feeds segments of at most
// ringChunk ops through here.
func (s *Sys) submitChunk(ops []Op) ([]Completion, Errno) {
	s.call.Lock()
	defer s.call.Unlock()
	checking := s.checking()
	ws := make([]WriteOp, len(ops))
	for i, op := range ops {
		ws[i] = op.w
		ws[i].PID = s.pid
		ws[i].Witness = checking && checked(op.w.Num)
	}
	frame, payload := EncodeBatch(s.pid, ws)
	ret, out := s.h.Syscall(frame, payload)
	var wits []Witness
	if checking {
		wits = s.takeWitness()
	}
	comps, errno, err := DecodeBatchResp(ret, out)
	if err != nil {
		return nil, EINVAL
	}
	if errno != EOK {
		return comps, errno
	}
	if len(comps) != len(ws) {
		s.recordViolation(fmt.Errorf("batch: %d completions for %d submitted ops", len(comps), len(ws)))
		return comps, EINVAL
	}
	if checking {
		if err := checkCompletions(ws, comps); err != nil {
			s.recordViolation(err)
		} else {
			s.checkWitnessed(ws, comps, wits)
		}
	}
	return comps, EOK
}

// Writev writes the buffers in order through one batch submission,
// returning the total byte count. It stops at the first failing buffer.
func (s *Sys) Writev(fd fs.FD, bufs [][]byte) (uint64, Errno) {
	ops := make([]Op, len(bufs))
	for i, b := range bufs {
		ops[i] = OpWrite(fd, b)
	}
	comps, e := s.SubmitWait(ops)
	if e != EOK {
		return 0, e
	}
	var total uint64
	for _, c := range comps {
		if c.Errno != EOK {
			return total, c.Errno
		}
		total += c.Val
	}
	return total, EOK
}

// Readv fills the buffers in order through one batch submission,
// returning the total byte count. A short read (EOF inside a buffer)
// ends the vector without error, matching the scalar Read contract.
func (s *Sys) Readv(fd fs.FD, bufs [][]byte) (uint64, Errno) {
	ops := make([]Op, len(bufs))
	for i, b := range bufs {
		ops[i] = OpRead(fd, uint64(len(b)))
	}
	comps, e := s.SubmitWait(ops)
	if e != EOK {
		return 0, e
	}
	var total uint64
	for i, c := range comps {
		if c.Errno != EOK {
			return total, c.Errno
		}
		total += uint64(copy(bufs[i], c.Data))
		if c.Val < uint64(len(bufs[i])) {
			break
		}
	}
	return total, EOK
}

// checkCompletions holds a batch's completion queue to what needs no
// witness: every completion answers the op submitted in its place, and
// the socket entries follow the per-connection state machine of the
// sockets the batch itself binds (bound → closed; sends only while bound;
// the accepted count equals the payload length; double close fails).
// Sockets bound before the batch are untracked — their table state is
// not the batch's to know — so only the count identity is checked.
func checkCompletions(ops []WriteOp, comps []Completion) error {
	type batchSock struct{ closed bool }
	socks := make(map[uint64]*batchSock)
	for i, op := range ops {
		c := comps[i]
		if c.Op != op.Num {
			return fmt.Errorf("batch op %d: completion for %s, submitted %s",
				i, OpName(c.Op), OpName(op.Num))
		}
		if c.Errno != EOK {
			if op.Num == NumSockSend || op.Num == NumSockRecv {
				if bs := socks[op.Sock]; bs != nil && !bs.closed && c.Errno == EBADF {
					return fmt.Errorf("batch op %d: EBADF for socket %d bound in this batch", i, op.Sock)
				}
			}
			continue
		}
		switch op.Num {
		case NumSockBind:
			socks[c.Val] = &batchSock{}
		case NumSockSend:
			if c.Val != uint64(len(op.Data)) {
				return fmt.Errorf("batch op %d (sock_send): accepted %d bytes for a %d-byte payload",
					i, c.Val, len(op.Data))
			}
			if bs := socks[op.Sock]; bs != nil && bs.closed {
				return fmt.Errorf("batch op %d: send succeeded on socket %d closed earlier in the batch",
					i, op.Sock)
			}
		case NumSockRecv:
			if bs := socks[op.Sock]; bs != nil && bs.closed {
				return fmt.Errorf("batch op %d: recv succeeded on socket %d closed earlier in the batch",
					i, op.Sock)
			}
		case NumSockClose:
			if bs := socks[op.Sock]; bs != nil {
				if bs.closed {
					return fmt.Errorf("batch op %d: double close of socket %d reported success", i, op.Sock)
				}
				bs.closed = true
			}
		}
	}
	return nil
}

// runEnd returns the end of the descriptor run that starts at ops[i]:
// the maximal ops[i:j] of reads, writes and seeks on ops[i]'s
// descriptor, or i+1 when ops[i] is none of those.
func runEnd(ops []WriteOp, i int) int {
	j := i + 1
	if IsRunOp(ops[i].Num) {
		for j < len(ops) && IsRunOp(ops[j].Num) && ops[j].FD == ops[i].FD {
			j++
		}
	}
	return j
}

// BatchSteps folds a submission vector's batchable entries into the
// transitions a kernel applies for them, in submission order: a
// descriptor run of two or more entries is one NumFDRun step — one
// transition on a co-located kernel, the Run protocol on a partitioned
// one — and any other batchable entry is a step of its own, its per-call
// syscall. at[j] is the index of step j's first entry.
func BatchSteps(ops []WriteOp) (steps []WriteOp, at []int) {
	n := 0
	for i := 0; i < len(ops); i = runEnd(ops, i) {
		if IsBatchableOp(ops[i].Num) {
			n++
		}
	}
	steps, at = make([]WriteOp, 0, n), make([]int, 0, n)
	for i, j := 0, 0; i < len(ops); i = j {
		j = runEnd(ops, i)
		switch {
		case j-i > 1:
			steps = append(steps, WriteOp{Num: NumFDRun, PID: ops[i].PID, FD: ops[i].FD,
				Witness: ops[i].Witness, Run: &FsRun{Ops: ops[i:j]}})
		case IsBatchableOp(ops[i].Num):
			steps = append(steps, ops[i])
		default:
			continue
		}
		at = append(at, i)
	}
	return steps, at
}

// CompleteStep answers the entries of ops a step applied, from its
// response r: comps[i] onward, one per entry — every entry of a run
// failing alike when the run could not take its descriptor. The step's
// witness, placed at entry i, is appended to wits.
func CompleteStep(ops []WriteOp, comps []Completion, i int, step *WriteOp, r Resp, wits []Witness) []Witness {
	if step.Num != NumFDRun {
		comps[i] = BatchCompletion(ops[i], r)
	} else {
		for k := range step.Run.Ops {
			e := RunResult{Errno: r.Errno}
			if r.Errno == EOK {
				e = r.Run[k]
			}
			comps[i+k] = Completion{Op: ops[i+k].Num, Errno: e.Errno, Val: e.Val, Data: e.Data}
		}
	}
	for _, w := range r.Witness {
		w.At = int32(i)
		wits = append(wits, w)
	}
	return wits
}
