package sys

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sched"
)

// This file is the syscall wire codec: ops travel as a register frame
// (the scalar arguments that fit the six argument registers of the
// simulated ABI) plus a marshalled overflow/variable-length payload.
// The §3 marshalling obligation — arguments and results round-trip
// exactly — is discharged for this codec by VCs in sys_obligations.go.

// IsReadOp reports whether a syscall number is a read-only operation
// (executed replica-locally rather than through the log).
func IsReadOp(num uint64) bool {
	switch num {
	case NumStat, NumReadDir, NumGetPID, NumMemResolve, NumPread:
		return true
	}
	return false
}

// IsLocalOp reports whether a syscall is handled by the composition
// layer (internal/core) outside the replicated kernel state: blocking
// primitives (futex) plus raw user memory access, which is not a
// kernel-state transition at all.
func IsLocalOp(num uint64) bool {
	switch num {
	case NumFutexWait, NumFutexWake, NumMemRead, NumMemWrite, NumMemCAS,
		NumSync:
		// NumSync is local because durability is a device effect: the
		// journal flush happens once, against the one disk, not once
		// per replica inside the state machine.
		return true
	}
	return false
}

// IsSockOp reports whether a syscall is a socket operation. The socket
// path is split: the *table* transition (bind/close/ownership) is
// logged through the replicated state machine as a socktab op, while
// the device effect (NIC transmit, interrupt-fed receive queues) stays
// in core. The core dispatcher intercepts these before local and
// replicated dispatch and sequences both halves (netops.go).
func IsSockOp(num uint64) bool {
	switch num {
	case NumSockBind, NumSockSend, NumSockRecv, NumSockClose:
		return true
	}
	return false
}

// IsBatchableOp reports whether a syscall number may ride in a NumBatch
// submission. Batchable ops are the file-state transitions: they have
// no core-side special handling (no frame allocation, no process
// lifecycle, no blocking), so a kernel applies them in one combiner
// round (ring.go's BatchSteps).
func IsBatchableOp(num uint64) bool {
	switch num {
	case NumOpen, NumClose, NumRead, NumWrite, NumSeek,
		NumTruncate, NumMkdir, NumUnlink, NumRmdir, NumRename, NumLink:
		return true
	}
	return false
}

// EncodeWrite packs a WriteOp for the boundary crossing.
func EncodeWrite(op WriteOp) (marshal.SyscallFrame, []byte) {
	frame := marshal.SyscallFrame{Num: op.Num}
	frame.Args[0] = uint64(op.PID)
	frame.Args[1] = uint64(op.FD)
	frame.Args[2] = uint64(op.VA)
	frame.Args[3] = op.Len
	frame.Args[4] = op.Size
	frame.Args[5] = uint64(op.TID)

	e := marshal.NewEncoder(make([]byte, 0, writeTailSize(&op)))
	encodeWriteTail(e, &op)
	return frame, e.Bytes()
}

// The write tail's presence bits, one per field in encoding order. A
// field whose bit is clear is zero and takes no bytes; Witness is its
// bit alone.
const (
	tailFlags uint32 = 1 << iota
	tailWhence
	tailOff
	tailCode
	tailSig
	tailTarget
	tailPri
	tailCore
	tailPath
	tailPath2
	tailName
	tailData
	tailSock
	tailAddr
	tailPort
	tailWord
	tailFrames
	tailWitness

	// tailDefined is every presence bit; a mask with any other bit set is
	// a decode error.
	tailDefined = tailWitness<<1 - 1
)

// errTailBits reports a write tail whose presence mask sets a bit no
// field is defined for.
var errTailBits = errors.New("sys: undefined write-tail field bits")

// tailWidth is the encoded width of each presence bit's field, a length
// prefix for a variable one (whose bytes writeTailSize adds).
var tailWidth = [...]int{8, 8, 8, 8, 1, 8, 1, 8, 4, 4, 4, 4, 8, 8, 2, 4, 4, 0}

// writeTailMask is the presence mask of op's tail: a bit per non-zero
// field.
func writeTailMask(op *WriteOp) uint32 {
	var m uint32
	for bit, set := range [...]bool{
		op.Flags != 0, op.Whence != 0, op.Off != 0, op.Code != 0,
		op.Sig != 0, op.Target != 0, op.Pri != 0, op.Core != 0,
		op.Path != "", op.Path2 != "", op.Name != "", len(op.Data) > 0,
		op.Sock != 0, op.Addr != 0, op.Port != 0, op.Word != 0,
		len(op.Frames) > 0, op.Witness,
	} {
		if set {
			m |= 1 << bit
		}
	}
	return m
}

// writeTailSize is the exact encoded size of encodeWriteTail's output,
// so encoders can be presized: the mask, each present field's width, and
// the variable fields' bytes (none when absent).
func writeTailSize(op *WriteOp) int {
	n := 4 + len(op.Path) + len(op.Path2) + len(op.Name) + len(op.Data) + 8*len(op.Frames)
	for m := writeTailMask(op); m != 0; m &= m - 1 {
		n += tailWidth[bits.TrailingZeros32(m)]
	}
	return n
}

// encodeWriteTail appends the overflow/variable-length fields of a
// WriteOp — everything that does not fit the six-register frame — as a
// presence mask and then the fields it names. The scalar syscall path and
// the batch path share it so the two encodings cannot drift.
func encodeWriteTail(e *marshal.Encoder, op *WriteOp) {
	m := writeTailMask(op)
	e.U32(m)
	if m&tailFlags != 0 {
		e.U64(op.Flags)
	}
	if m&tailWhence != 0 {
		e.I64(int64(op.Whence))
	}
	if m&tailOff != 0 {
		e.I64(op.Off)
	}
	if m&tailCode != 0 {
		e.I64(int64(op.Code))
	}
	if m&tailSig != 0 {
		e.U8(uint8(op.Sig))
	}
	if m&tailTarget != 0 {
		e.U64(uint64(op.Target))
	}
	if m&tailPri != 0 {
		e.U8(uint8(op.Pri))
	}
	if m&tailCore != 0 {
		e.I64(int64(op.Core))
	}
	if m&tailPath != 0 {
		e.String(op.Path)
	}
	if m&tailPath2 != 0 {
		e.String(op.Path2)
	}
	if m&tailName != 0 {
		e.String(op.Name)
	}
	if m&tailData != 0 {
		e.BytesField(op.Data)
	}
	if m&tailSock != 0 {
		e.U64(op.Sock)
	}
	if m&tailAddr != 0 {
		e.U64(op.Addr)
	}
	if m&tailPort != 0 {
		e.U16(op.Port)
	}
	if m&tailWord != 0 {
		e.U32(op.Word)
	}
	if m&tailFrames != 0 {
		e.U32(uint32(len(op.Frames)))
		for _, f := range op.Frames {
			e.U64(uint64(f))
		}
	}
}

// decodeWriteTail is the inverse of encodeWriteTail: an absent field
// stays zero, and an undefined presence bit fails the decode. It does not
// call Finish — the caller decides when the payload must be exhausted.
func decodeWriteTail(d *marshal.Decoder, op *WriteOp) {
	m := d.U32()
	if m&^tailDefined != 0 {
		d.Fail(fmt.Errorf("%w: %#x", errTailBits, m&^tailDefined))
		return
	}
	if m&tailFlags != 0 {
		op.Flags = d.U64()
	}
	if m&tailWhence != 0 {
		op.Whence = int(d.I64())
	}
	if m&tailOff != 0 {
		op.Off = d.I64()
	}
	if m&tailCode != 0 {
		op.Code = int(d.I64())
	}
	if m&tailSig != 0 {
		op.Sig = proc.Signal(d.U8())
	}
	if m&tailTarget != 0 {
		op.Target = proc.PID(d.U64())
	}
	if m&tailPri != 0 {
		op.Pri = sched.Priority(d.U8())
	}
	if m&tailCore != 0 {
		op.Core = int(d.I64())
	}
	if m&tailPath != 0 {
		op.Path = d.String()
	}
	if m&tailPath2 != 0 {
		op.Path2 = d.String()
	}
	if m&tailName != 0 {
		op.Name = d.String()
	}
	if m&tailData != 0 {
		op.Data = d.BytesFieldRef()
	}
	if m&tailSock != 0 {
		op.Sock = d.U64()
	}
	if m&tailAddr != 0 {
		op.Addr = d.U64()
	}
	if m&tailPort != 0 {
		op.Port = d.U16()
	}
	if m&tailWord != 0 {
		op.Word = d.U32()
	}
	if m&tailFrames != 0 {
		n := d.U32()
		// A count the payload cannot hold is caught by the reads below;
		// it must not size the slice.
		op.Frames = make([]mem.PAddr, 0, min(int(n), d.Remaining()/8))
		for i := uint32(0); i < n && d.Err() == nil; i++ {
			op.Frames = append(op.Frames, mem.PAddr(d.U64()))
		}
	}
	op.Witness = m&tailWitness != 0
}

// DecodeWrite unpacks a WriteOp on the kernel side.
func DecodeWrite(frame marshal.SyscallFrame, payload []byte) (WriteOp, error) {
	op := WriteOp{
		Num:  frame.Num,
		PID:  proc.PID(frame.Args[0]),
		FD:   fs.FD(frame.Args[1]),
		VA:   mmu.VAddr(frame.Args[2]),
		Len:  frame.Args[3],
		Size: frame.Args[4],
		TID:  sched.TID(frame.Args[5]),
	}
	d := marshal.NewDecoder(payload)
	decodeWriteTail(d, &op)
	if err := d.Finish(); err != nil {
		return WriteOp{}, fmt.Errorf("sys: write op decode: %w", err)
	}
	return op, nil
}

// EncodeRead packs a ReadOp. The witness bit rides in the sixth
// register, so an unchecked read pays nothing for it.
func EncodeRead(op ReadOp) (marshal.SyscallFrame, []byte) {
	frame := marshal.SyscallFrame{Num: op.Num}
	frame.Args[0] = uint64(op.PID)
	frame.Args[1] = uint64(op.FD)
	frame.Args[2] = uint64(op.VA)
	frame.Args[3] = op.Len
	frame.Args[4] = uint64(op.TID)
	if op.Witness {
		frame.Args[5] = 1
	}
	e := marshal.NewEncoder(make([]byte, 0, 4+len(op.Path)+8))
	e.String(op.Path)
	e.U64(op.Off)
	return frame, e.Bytes()
}

// DecodeRead unpacks a ReadOp.
func DecodeRead(frame marshal.SyscallFrame, payload []byte) (ReadOp, error) {
	op := ReadOp{
		Num:     frame.Num,
		PID:     proc.PID(frame.Args[0]),
		FD:      fs.FD(frame.Args[1]),
		VA:      mmu.VAddr(frame.Args[2]),
		Len:     frame.Args[3],
		TID:     sched.TID(frame.Args[4]),
		Witness: frame.Args[5] != 0,
	}
	d := marshal.NewDecoder(payload)
	op.Path = d.String()
	op.Off = d.U64()
	if err := d.Finish(); err != nil {
		return ReadOp{}, fmt.Errorf("sys: read op decode: %w", err)
	}
	return op, nil
}

// EncodeResp packs a Resp for the return crossing. A reply that carries
// nothing past its errno and value is the register frame alone, with no
// payload; any other is one allocation of exactly its encoded size.
func EncodeResp(r Resp) (marshal.RetFrame, []byte) {
	ret := marshal.RetFrame{Value: r.Val, Errno: uint64(r.Errno)}
	if len(r.Data) == 0 && r.Stat == (fs.Stat{}) && len(r.Entries) == 0 &&
		r.Wait == (proc.WaitResult{}) && r.TID == 0 && r.Sig == 0 && !r.SigOK && len(r.Freed) == 0 {
		return ret, nil
	}
	size := 63 + len(r.Data) + 8*len(r.Freed) // fixed-width fields and length prefixes
	for i := range r.Entries {
		size += 13 + len(r.Entries[i].Name)
	}
	e := marshal.NewEncoder(make([]byte, 0, size))
	e.BytesField(r.Data)
	e.U64(uint64(r.Stat.Ino)).U8(uint8(r.Stat.Kind)).U64(r.Stat.Size).I64(int64(r.Stat.Nlink))
	e.U32(uint32(len(r.Entries)))
	for _, ent := range r.Entries {
		e.String(ent.Name)
		e.U64(uint64(ent.Ino))
		e.U8(uint8(ent.Kind))
	}
	e.U64(uint64(r.Wait.PID)).I64(int64(r.Wait.ExitCode))
	e.U64(uint64(r.TID))
	e.U8(uint8(r.Sig))
	e.Bool(r.SigOK)
	e.U32(uint32(len(r.Freed)))
	for _, f := range r.Freed {
		e.U64(uint64(f))
	}
	return ret, e.Bytes()
}

// An encoded batch entry is its six register words (batchOpHead) and its
// write tail; an encoded completion is three words and its data's length
// prefix (batchCompSize) and then the data.
const (
	batchOpHead   = 48
	batchCompSize = 28
)

// EncodeBatch packs a submission vector for one NumBatch crossing. The
// process identity travels once in the frame — DecodeBatch stamps it
// onto every op, so a batch cannot smuggle operations on behalf of
// another process.
func EncodeBatch(pid proc.PID, ops []WriteOp) (marshal.SyscallFrame, []byte) {
	frame := marshal.SyscallFrame{Num: NumBatch}
	frame.Args[0] = uint64(pid)
	frame.Args[1] = uint64(len(ops))
	size := 4
	for i := range ops {
		size += batchOpHead + writeTailSize(&ops[i])
	}
	e := marshal.NewEncoder(make([]byte, 0, size))
	e.U32(uint32(len(ops)))
	for i := range ops {
		op := &ops[i]
		e.U64(op.Num)
		e.U64(uint64(op.FD))
		e.U64(uint64(op.VA))
		e.U64(op.Len)
		e.U64(op.Size)
		e.U64(uint64(op.TID))
		encodeWriteTail(e, op)
	}
	return frame, e.Bytes()
}

// DecodeBatch unpacks a NumBatch submission on the kernel side.
func DecodeBatch(frame marshal.SyscallFrame, payload []byte) ([]WriteOp, error) {
	if frame.Num != NumBatch {
		return nil, fmt.Errorf("sys: batch decode: frame num %d is not NumBatch", frame.Num)
	}
	pid := proc.PID(frame.Args[0])
	d := marshal.NewDecoder(payload)
	n := d.U32()
	if uint64(n) != frame.Args[1] {
		return nil, fmt.Errorf("sys: batch decode: frame count %d != payload count %d",
			frame.Args[1], n)
	}
	if uint64(n)*(batchOpHead+4) > uint64(len(payload)) {
		// Every encoded op is at least its register words and its tail's
		// mask; a count the payload cannot hold is corrupt, not merely
		// truncated, and must not size the vector.
		return nil, fmt.Errorf("sys: batch decode: count %d exceeds payload", n)
	}
	ops := make([]WriteOp, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		op := &ops[i]
		op.PID = pid
		op.Num = d.U64()
		op.FD = fs.FD(d.U64())
		op.VA = mmu.VAddr(d.U64())
		op.Len = d.U64()
		op.Size = d.U64()
		op.TID = sched.TID(d.U64())
		decodeWriteTail(d, op)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("sys: batch decode: %w", err)
	}
	return ops, nil
}

// EncodeBatchResp packs the completion queue for the return crossing.
// errno reports batch-level failure (decode error, kernel refusal);
// per-op results travel in their completions.
func EncodeBatchResp(comps []Completion, errno Errno) (marshal.RetFrame, []byte) {
	ret := marshal.RetFrame{Value: uint64(len(comps)), Errno: uint64(errno)}
	size := 4
	for i := range comps {
		size += batchCompSize + len(comps[i].Data)
	}
	e := marshal.NewEncoder(make([]byte, 0, size))
	e.U32(uint32(len(comps)))
	for i := range comps {
		c := &comps[i]
		e.U64(c.Op)
		e.U64(uint64(c.Errno))
		e.U64(c.Val)
		e.BytesField(c.Data)
	}
	return ret, e.Bytes()
}

// DecodeBatchResp unpacks the completion queue on the user side.
func DecodeBatchResp(ret marshal.RetFrame, payload []byte) ([]Completion, Errno, error) {
	errno := Errno(ret.Errno)
	d := marshal.NewDecoder(payload)
	n := d.U32()
	if uint64(n) != ret.Value {
		return nil, errno, fmt.Errorf("sys: batch resp decode: ret count %d != payload count %d",
			ret.Value, n)
	}
	if uint64(n)*batchCompSize > uint64(len(payload)) {
		return nil, errno, fmt.Errorf("sys: batch resp decode: count %d exceeds payload", n)
	}
	comps := make([]Completion, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		comps = append(comps, Completion{
			Op:    d.U64(),
			Errno: Errno(d.U64()),
			Val:   d.U64(),
			Data:  d.BytesFieldRef(),
		})
	}
	if err := d.Finish(); err != nil {
		return nil, errno, fmt.Errorf("sys: batch resp decode: %w", err)
	}
	return comps, errno, nil
}

// DecodeResp unpacks a Resp on the user side. An empty payload is the
// all-zero tail EncodeResp leaves off.
func DecodeResp(ret marshal.RetFrame, payload []byte) (Resp, error) {
	r := Resp{Errno: Errno(ret.Errno), Val: ret.Value}
	if len(payload) == 0 {
		return r, nil
	}
	d := marshal.NewDecoder(payload)
	r.Data = d.BytesFieldRef()
	r.Stat = fs.Stat{
		Ino:   fs.Ino(d.U64()),
		Kind:  fs.Kind(d.U8()),
		Size:  d.U64(),
		Nlink: int(d.I64()),
	}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		r.Entries = append(r.Entries, fs.DirEntry{
			Name: d.String(),
			Ino:  fs.Ino(d.U64()),
			Kind: fs.Kind(d.U8()),
		})
	}
	r.Wait = proc.WaitResult{PID: proc.PID(d.U64()), ExitCode: int(d.I64())}
	r.TID = sched.TID(d.U64())
	r.Sig = proc.Signal(d.U8())
	r.SigOK = d.Bool()
	fn := d.U32()
	for i := uint32(0); i < fn && d.Err() == nil; i++ {
		r.Freed = append(r.Freed, mem.PAddr(d.U64()))
	}
	if err := d.Finish(); err != nil {
		return Resp{}, fmt.Errorf("sys: resp decode: %w", err)
	}
	return r, nil
}
