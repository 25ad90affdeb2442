package sys

import (
	"fmt"

	"github.com/verified-os/vnros/internal/fs"
)

// This file is the user half of the batched syscall submission ring —
// an io_uring-shaped surface over the NR combiner. A program enqueues N
// encoded ops (the submission queue), crosses the boundary once with a
// NumBatch frame, the kernel drains the vector in the fewest combiner
// rounds its shape allows — on the monolith one round for the whole
// vector (one log reservation, one combine pass); on the sharded kernel
// one owner-shard round per descriptor run, between the lock and unlock
// rounds on the process shard — and the completions come back as an
// ordered completion queue.
//
// Contract checking stays on. A scalar Read/Write/Seek is one transition
// and is checked against a witness captured in its apply (sys.go); a
// batch is a window of transitions, so it brackets the crossing with one
// pre and one post view() — O(1) immutable snapshots — and *replays* the
// §3 spec relations op by op against a model it evolves from the pre
// view: each ReadSpec/WriteSpec/SeekSpec is checked against the model's
// rolling state, and the model's endpoint must coincide with the real
// post view. See checkBatch for the precise argument and its two
// documented degradations.

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
// in a single NumBatch frame and checks the §3 contract over it with
// one pre/post snapshot pair. Ops are assumed boundary-validated (see
// Batch.Submit); the ring drainer in submit.go feeds segments of at
// most ringChunk ops through here.
//
// The chunk's contract check snapshots the process view once around the
// whole segment, so — unlike the per-call checker, whose witness is
// taken inside the apply — it assumes no concurrent syscall mutates the
// descriptors or files the segment touches while it is in flight: the
// client-side data-race-freedom obligation for a batch.
func (s *Sys) submitChunk(ops []Op) ([]Completion, Errno) {
	ws := make([]WriteOp, len(ops))
	for i, op := range ops {
		ws[i] = op.w
		ws[i].PID = s.pid
	}
	pre, checking := s.view()
	frame, payload := EncodeBatch(s.pid, ws)
	ret, out := s.h.Syscall(frame, payload)
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
		post, _ := s.view()
		if err := checkBatch(pre, post, ws, comps); err != nil {
			s.recordViolation(err)
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

// batchFD is the model's state for one descriptor during replay.
type batchFD struct {
	ino fs.Ino
	off uint64
	// app mirrors the descriptor's OAppend flag: writes resolve their
	// offset at the model's EOF, which only trusted contents can name.
	app bool
	// tracked is false for descriptors the batch itself opened: their
	// pre-state is not in the snapshot, so ops on them go unchecked.
	tracked bool
}

// checkBatch validates a drained batch against the §3 spec relations
// with one pre/post snapshot pair for the whole batch.
//
// The argument: seed a model from the pre view (per-inode contents, so
// aliased descriptors stay coherent, plus per-descriptor offsets). The
// model's contents are a fs.PageFile over the pre view's pages — seeded
// in O(1), cloning only the pages the batch's writes touch, once each.
// For op k, construct the model's pre state, apply the op's *expected*
// transition to get the model's post state, and check the real
// completion against the actual relation (ReadSpec/WriteSpec/SeekSpec)
// over that model pair. Inductively, if every per-op relation holds and
// the model's endpoint equals the real post view, the batch behaved as
// the sequential composition of the specified transitions.
//
// Two documented degradations keep the check free of false positives:
// descriptors opened inside the batch are untracked (their prior
// contents are unknowable from the snapshot), and a successful
// namespace mutation (unlink/rename, or open-with-OTrunc whose target
// inode the model cannot name) marks contents untrusted — from there on
// only offset evolution is checked.
func checkBatch(pre, post fs.SpecState, ops []WriteOp, comps []Completion) error {
	model := make(map[fs.FD]*batchFD, len(pre.Files))
	contents := make(map[fs.Ino]*fs.PageFile, len(pre.Files))
	for fd, f := range pre.Files {
		model[fd] = &batchFD{ino: f.Ino, off: f.Offset, app: f.Append, tracked: true}
		if _, ok := contents[f.Ino]; !ok {
			contents[f.Ino] = fs.FileOf(f.Contents)
		}
	}
	trusted := true

	// Pread completions are validated against the batch's *final*
	// contents, not the model state at their position: the kernel serves
	// them from the page cache after every logged op of the batch has
	// applied (see OpPread), so their bytes reflect the batch endpoint.
	type preadEntry struct {
		i    int
		ino  fs.Ino
		off  uint64
		n    uint64 // requested length
		val  uint64
		data []byte
	}
	var preads []preadEntry

	// Socket replay: the per-connection state machine for sockets the
	// batch itself binds (bound → closed; sends only while bound; the
	// accepted count equals the payload length; double close fails).
	// Sockets bound before the batch are untracked — their table state
	// is not in the fs snapshot — so only the count identity is checked.
	type batchSock struct{ closed bool }
	socks := make(map[uint64]*batchSock)

	// The per-op spec calls each need a one-descriptor pre and post
	// state; two reused maps keep the replay loop allocation-free.
	preM := make(map[fs.FD]fs.SpecFile, 1)
	postM := make(map[fs.FD]fs.SpecFile, 1)
	single := func(m map[fs.FD]fs.SpecFile, fd fs.FD, data fs.Pages, off uint64, locked, app bool) fs.SpecState {
		clear(m)
		m[fd] = fs.SpecFile{Contents: data, Offset: off, Locked: locked, Append: app}
		return fs.SpecState{Files: m}
	}

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
			// Failed transitions leave the abstract state unchanged; the
			// endpoint comparison below catches a kernel that mutated
			// state on a reported failure.
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
		switch op.Num {
		case NumOpen:
			model[fs.FD(c.Val)] = &batchFD{}
			if OpenFlag(op.Flags)&OTrunc != 0 {
				trusted = false
			}
		case NumClose:
			delete(model, op.FD)
		case NumPread:
			m := model[op.FD]
			if m == nil || !m.tracked {
				continue
			}
			if uint64(len(c.Data)) != c.Val {
				return fmt.Errorf("batch op %d (pread fd %d): %d payload bytes for count %d",
					i, op.FD, len(c.Data), c.Val)
			}
			// A positioned read mutates nothing: the descriptor offset
			// must not move (checked at the endpoint) and the bytes are
			// validated against the final contents after the replay.
			preads = append(preads, preadEntry{i: i, ino: m.ino, off: uint64(op.Off), n: op.Len, val: c.Val, data: c.Data})
		case NumRead:
			m := model[op.FD]
			if m == nil || !m.tracked {
				continue
			}
			if uint64(len(c.Data)) != c.Val {
				return fmt.Errorf("batch op %d (read fd %d): %d payload bytes for count %d",
					i, op.FD, len(c.Data), c.Val)
			}
			if trusted {
				cur := contents[m.ino].Peek()
				preS := single(preM, op.FD, cur, m.off, true, false)
				postS := single(postM, op.FD, cur, m.off+c.Val, false, false)
				if err := fs.ReadSpec(preS, postS, op.FD, op.Len, c.Data, c.Val); err != nil {
					return fmt.Errorf("batch op %d: %w", i, err)
				}
			}
			m.off += c.Val
		case NumWrite:
			m := model[op.FD]
			if m == nil || !m.tracked {
				continue
			}
			if !trusted && m.app {
				// An append write lands at EOF, which untrusted contents
				// cannot name — the descriptor's offset evolution is
				// unknowable from here on.
				m.tracked = false
				continue
			}
			wOff := m.off
			if trusted {
				file := contents[m.ino]
				if m.app && len(op.Data) > 0 {
					wOff = file.Size() // append resolves at the model's EOF
				}
				// WriteSpec's expected contents transition. The model owns
				// the file and writes a page it has already cloned in
				// place, so cur keeps the old size but may show the new
				// bytes: the relation below pins the count, the size and
				// the offset, and the contents are settled at the endpoint.
				cur := file.Peek()
				if _, err := file.WriteAt(wOff, op.Data); err != nil {
					return fmt.Errorf("batch op %d (write fd %d): reported success: %w", i, op.FD, err)
				}
				preS := single(preM, op.FD, cur, m.off, true, m.app)
				postS := single(postM, op.FD, file.Peek(), wOff+c.Val, false, m.app)
				if err := fs.WriteSpec(preS, postS, op.FD, op.Data, c.Val); err != nil {
					return fmt.Errorf("batch op %d: %w", i, err)
				}
			}
			m.off = wOff + c.Val
		case NumSeek:
			m := model[op.FD]
			if m == nil || !m.tracked {
				continue
			}
			if trusted {
				cur := contents[m.ino].Peek()
				preS := single(preM, op.FD, cur, m.off, false, false)
				postS := single(postM, op.FD, cur, c.Val, false, false)
				if err := fs.SeekSpec(preS, postS, op.FD, op.Off, op.Whence, c.Val); err != nil {
					return fmt.Errorf("batch op %d: %w", i, err)
				}
			}
			m.off = c.Val
		case NumTruncate:
			m := model[op.FD]
			if m == nil || !m.tracked {
				continue
			}
			if trusted {
				if err := contents[m.ino].Truncate(op.Len); err != nil {
					return fmt.Errorf("batch op %d (truncate fd %d): reported success: %w", i, op.FD, err)
				}
			}
		case NumUnlink, NumRename:
			// The model cannot map paths to inodes; the mutated inode
			// may alias a tracked descriptor, so contents become
			// untrusted (offsets remain exact).
			trusted = false
		}
	}

	if trusted {
		for _, pr := range preads {
			data := contents[pr.ino].Peek()
			want := ClampReadLen(pr.n, pr.off, data.Len())
			if pr.val != want {
				return fmt.Errorf("batch op %d (pread): count %d, want %d against final contents", pr.i, pr.val, want)
			}
			if !data.EqualBytes(pr.off, pr.data) {
				return fmt.Errorf("batch op %d (pread): data diverges from final contents at offset %d", pr.i, pr.off)
			}
		}
	}

	// Endpoint: every tracked, still-open descriptor of the model must
	// coincide with the real post view.
	for fd, m := range model {
		if !m.tracked {
			continue
		}
		qf, ok := post.Files[fd]
		if !ok {
			return fmt.Errorf("batch endpoint: fd %d open in model but absent from post view", fd)
		}
		if qf.Offset != m.off {
			return fmt.Errorf("batch endpoint: fd %d offset %d, model expects %d", fd, qf.Offset, m.off)
		}
		if want := contents[m.ino].Peek(); trusted && !qf.Contents.Equal(want) {
			return fmt.Errorf("batch endpoint: fd %d contents diverge from model (%d vs %d bytes)",
				fd, qf.Contents.Len(), want.Len())
		}
	}
	return nil
}
