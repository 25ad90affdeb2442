package sys

import (
	"fmt"
	"slices"
	"unsafe"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/nr"
)

// This file is the batched syscall submission ring — an io_uring-shaped
// surface over the NR combiner. A program enqueues N encoded ops (the
// submission queue), crosses the boundary once with a NumBatch frame,
// the kernel drains the vector in the fewest combiner rounds its shape
// allows — on the monolith one round for the whole vector (one log
// reservation, one combine pass); on the sharded kernel one owner-shard
// round per descriptor run, between the lock and unlock rounds on the
// process shard — and the completions come back as an ordered completion
// queue. Both kernels fold the vector into the same steps (Steps.Fold):
// a descriptor run, adjacent reads, writes and seeks on one descriptor,
// or a lone write, is one transition.
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
// descriptor offset untouched. In a batch the kernel serves it with
// replica-local reads after the batch's logged ops complete, so it
// observes every write in the same batch (earlier or later — positioned
// reads carry no submission-order guarantee against their own batch's
// writes).
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

// crossBatch carries one batch across the boundary in a single NumBatch
// frame and checks the §3 contract over it. Its reaper holds the handle
// (s.call) for the crossing, as a per-call Read or Write does: the
// handler's witness slot is one per handle, and a batch's witnesses are
// taken as it returns. The request vector and its encoding are the
// handle's, reused from one batch to the next under s.call (Recycle):
// nothing keeps them once the crossing has returned, since the log
// copies what a logged entry borrows of them (WriteOp.Lent). Ops are
// assumed boundary-validated (see Batch.Submit).
func (s *Sys) crossBatch(ops []Op) ([]Completion, Errno) {
	checking := s.checking()
	ws := s.batchOps[:0]
	for _, op := range ops {
		w := op.w
		w.PID = s.pid
		w.Witness = checking && checked(op.w.Num)
		ws = append(ws, w)
	}
	frame, payload := appendBatch(s.batchBuf, s.pid, ws)
	defer func() { s.batchOps, s.batchBuf = Recycle(ws), Recycle(payload) }()
	ret, out := s.h.Syscall(frame, payload)
	var wits []Witness
	if checking {
		wits = s.takeWitness()
		defer s.releaseWitness()
	}
	comps, errno, err := DecodeBatchResp(ret, out)
	if err != nil {
		s.recordViolation(fmt.Errorf("batch of %d ops: undecodable completion queue: %w", len(ws), err))
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

// Recycle readies a batch buffer for the next batch to reuse: it clears
// what v held, so the buffer keeps nothing a batch referenced (the
// caller's payloads, the read results), and returns it empty — or nil
// when its storage is over nr.SlotBytes, the bound a log slot's store
// keeps to, so one large batch does not pin its buffers for the life of
// the handle or handler that reuses them.
func Recycle[T any](v []T) []T {
	var zero T
	if cap(v)*int(unsafe.Sizeof(zero)) > nr.SlotBytes {
		return nil
	}
	clear(v)
	return v[:0]
}

// RecycleResps is Recycle for a vector of answers that keeps each
// answer's Run vector, recycled, for Kernel.fsRun to answer into again:
// the answers and their Run vectors together keep at most nr.SlotBytes.
func RecycleResps(rs []Resp) []Resp {
	all := rs[:cap(rs)]
	n := cap(rs) * int(unsafe.Sizeof(Resp{}))
	for i := range all {
		n += cap(all[i].Run) * int(unsafe.Sizeof(RunResult{}))
	}
	if n > nr.SlotBytes {
		return nil
	}
	for i := range all {
		all[i] = Resp{Run: Recycle(all[i].Run)}
	}
	return rs[:0]
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

// Steps is a submission vector folded into the transitions a kernel
// applies for its batchable entries (Fold), kept in storage a handler
// reuses from one batch to the next.
type Steps struct {
	// Ops are the steps, in submission order, and At[j] the index of
	// step j's first entry.
	Ops []WriteOp
	At  []int
	// runs are the steps' runs, which Ops[j].Run points into.
	runs []FsRun
}

// Fold folds ops's batchable entries into s, in submission order: a
// descriptor run of two or more entries, or a lone write, is one
// NumFDRun step — one transition on a co-located kernel, the Run
// protocol on a partitioned one — and any other batchable entry is a
// step of its own, its per-call syscall. A write always rides in a run
// because a run is what the log copies (WriteOp.Lent): its bytes alias
// the crossing's request, which the handle reuses. The steps alias ops.
func (s *Steps) Fold(ops []WriteOp) {
	n, runs := 0, 0
	for i, j := 0, 0; i < len(ops); i = j {
		j = runEnd(ops, i)
		switch {
		case isRun(ops, i, j):
			runs++
			n++
		case IsBatchableOp(ops[i].Num):
			n++
		}
	}
	// Grown before any step points into it: appends within capacity
	// never move a run.
	s.Ops, s.At, s.runs = slices.Grow(s.Ops[:0], n), slices.Grow(s.At[:0], n), slices.Grow(s.runs[:0], runs)
	for i, j := 0, 0; i < len(ops); i = j {
		j = runEnd(ops, i)
		switch {
		case isRun(ops, i, j):
			s.runs = append(s.runs, ops[i:j])
			s.Ops = append(s.Ops, WriteOp{Num: NumFDRun, PID: ops[i].PID, FD: ops[i].FD,
				Witness: ops[i].Witness, Run: &s.runs[len(s.runs)-1]})
		case IsBatchableOp(ops[i].Num):
			s.Ops = append(s.Ops, ops[i])
		default:
			continue
		}
		s.At = append(s.At, i)
	}
}

// Recycle readies s for the next Fold (the package's Recycle, for each
// of its vectors).
func (s *Steps) Recycle() {
	s.Ops, s.At, s.runs = Recycle(s.Ops), Recycle(s.At), Recycle(s.runs)
}

// isRun reports whether ops[i:j], a runEnd span, is a NumFDRun step.
func isRun(ops []WriteOp, i, j int) bool { return j-i > 1 || ops[i].Num == NumWrite }

// CompleteStep answers the entries of ops a step applied, from its
// response r: comps[i] onward, one per entry — every entry of a run
// failing alike when the run could not take its descriptor. The step's
// witness, if it has one, placed at entry i, is appended to wits.
func CompleteStep(ops []WriteOp, comps []Completion, i int, step *WriteOp, r Resp, wits []Witness) []Witness {
	if step.Num != NumFDRun {
		comps[i] = BatchCompletion(ops[i], r)
	} else {
		for k := range *step.Run {
			e := RunResult{Errno: r.Errno}
			if r.Errno == EOK {
				e = r.Run[k]
			}
			comps[i+k] = Completion{Op: ops[i+k].Num, Errno: e.Errno, Val: e.Val, Data: e.Data}
		}
	}
	if r.Witness.N > 0 {
		r.Witness.At = int32(i)
		wits = append(wits, r.Witness)
	}
	return wits
}
