package sys

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"slices"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/proc"
)

// This file is the syscall wire codec: ops travel as a register frame
// (the scalar arguments that fit the six argument registers of the
// simulated ABI) plus a marshalled overflow/variable-length payload.
// The §3 marshalling obligation — arguments and results round-trip
// exactly — is discharged for this codec by VCs in sys_obligations.go.

// EncodeWrite packs a WriteOp for the boundary crossing, into one
// allocation of exactly its size.
func EncodeWrite(op WriteOp) (marshal.SyscallFrame, []byte) { return encodeWrite(&op) }

// encodeWrite is EncodeWrite of an op the caller keeps.
func encodeWrite(op *WriteOp) (marshal.SyscallFrame, []byte) {
	_, size := writeTail(op)
	return appendWrite(make([]byte, 0, size), op)
}

// appendWrite is encodeWrite into buf's storage, which it reuses, grown
// as it goes.
func appendWrite(buf []byte, op *WriteOp) (marshal.SyscallFrame, []byte) {
	frame := marshal.SyscallFrame{Num: op.Num}
	frame.Args[0] = uint64(op.PID)
	frame.Args[1] = uint64(op.FD)
	frame.Args[2] = uint64(op.VA)
	frame.Args[3] = op.Len
	frame.Args[4] = op.Size
	e := marshal.NewEncoder(buf)
	encodeWriteTail(e, op)
	return frame, e.Bytes()
}

// A tailField is one optional field of a request's wire tail, the
// WriteOp field of its name. Its presence bit is its index in tailFields,
// so the bit layout is the table order; a field whose bit is clear is
// zero and takes no bytes. Its width, zero test, encode and decode follow
// from its type: an unsigned integer takes its own size and a signed one
// 8 bytes, whatever the platform; a string or bytes follows a 4-byte
// length prefix; a flag is its presence bit alone.
type tailField struct {
	name  string
	index int // the field's index in WriteOp
	width int // a string's or bytes' length prefix, without the bytes
}

var tailFields = [...]tailField{
	field("Flags"), field("Whence"), field("Off"), field("Code"), field("Sig"), field("Target"),
	field("Path"), field("Path2"), field("Name"), field("Data"), field("Sock"), field("Addr"),
	field("Port"), field("Word"), field("Witness"),
}

// tailDefined is every presence bit; a mask with any other bit set is a
// decode error.
const tailDefined = 1<<len(tailFields) - 1

// field declares the tail field called name.
func field(name string) tailField {
	f, ok := reflect.TypeFor[WriteOp]().FieldByName(name)
	if !ok {
		panic("sys: WriteOp has no field " + name)
	}
	width := int(f.Type.Size())
	switch f.Type.Kind() {
	case reflect.Int, reflect.Int64:
		width = 8
	case reflect.String, reflect.Slice:
		width = 4
	case reflect.Bool:
		width = 0
	}
	return tailField{name: name, index: f.Index[0], width: width}
}

// enc appends the field of op.
func (f *tailField) enc(e *marshal.Encoder, op reflect.Value) {
	switch v := op.Field(f.index); v.Kind() {
	case reflect.String:
		e.String(v.String())
	case reflect.Slice:
		e.BytesField(v.Bytes())
	case reflect.Bool:
	case reflect.Int, reflect.Int64:
		e.I64(v.Int())
	case reflect.Uint8:
		e.U8(uint8(v.Uint()))
	case reflect.Uint16:
		e.U16(uint16(v.Uint()))
	case reflect.Uint32:
		e.U32(uint32(v.Uint()))
	default:
		e.U64(v.Uint())
	}
}

// dec reads the field into op. Bytes and strings are read by reference
// (marshal.Decoder.BytesFieldRef, StringRef): the request is lent for the
// call (Handler), so the op borrows them as its entry does (WriteOp.Lent),
// and whatever the kernel keeps of them it clones where it stores it.
func (f *tailField) dec(d *marshal.Decoder, op reflect.Value) {
	switch v := op.Field(f.index); v.Kind() {
	case reflect.String:
		v.SetString(d.StringRef())
	case reflect.Slice:
		v.SetBytes(d.BytesFieldRef())
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(d.I64())
	case reflect.Uint8:
		v.SetUint(uint64(d.U8()))
	case reflect.Uint16:
		v.SetUint(uint64(d.U16()))
	case reflect.Uint32:
		v.SetUint(uint64(d.U32()))
	default:
		v.SetUint(d.U64())
	}
}

// tailBit is the presence bit of the tail field called name.
func tailBit(name string) uint32 {
	for i := range tailFields {
		if tailFields[i].name == name {
			return 1 << i
		}
	}
	panic("sys: no write-tail field " + name)
}

// errTailBits reports a write tail whose presence mask sets a bit for a
// field its op does not carry.
var errTailBits = errors.New("sys: write-tail field bits the op does not carry")

// writeTail is the presence mask of op's tail — a bit per non-zero field
// among those its row carries — and the exact size encodeWriteTail gives
// it, so encoders can be presized: the mask, each present field's width,
// and a string's or bytes' contents.
func writeTail(op *WriteOp) (m uint32, size int) {
	v := reflect.ValueOf(op).Elem()
	size = 4
	for b := lookup(op.Num).tail; b != 0; b &= b - 1 {
		i := bits.TrailingZeros32(b)
		f := &tailFields[i]
		switch fv := v.Field(f.index); {
		case fv.IsZero():
			continue
		case fv.Kind() == reflect.String || fv.Kind() == reflect.Slice:
			size += fv.Len()
		}
		m |= 1 << i
		size += f.width
	}
	return m, size
}

// encodeWriteTail appends the overflow/variable-length fields of a
// WriteOp — everything that does not fit the six-register frame — as its
// presence mask and then the fields it names, in one walk of the op's
// row: the mask's word is appended first and filled in once the walk
// has found the non-zero fields (the mask writeTail computes). The
// scalar syscall path and the batch path share it so the two encodings
// cannot drift.
func encodeWriteTail(e *marshal.Encoder, op *WriteOp) {
	at := len(e.Bytes())
	e.U32(0)
	v := reflect.ValueOf(op).Elem()
	var m uint32
	for b := lookup(op.Num).tail; b != 0; b &= b - 1 {
		i := bits.TrailingZeros32(b)
		if f := &tailFields[i]; !v.Field(f.index).IsZero() {
			m |= 1 << i
			f.enc(e, v)
		}
	}
	binary.LittleEndian.PutUint32(e.Bytes()[at:], m)
}

// decodeWriteTail is the inverse of encodeWriteTail: an absent field
// stays zero, and a presence bit for a field op.Num does not carry fails
// the decode. It does not call Finish — the caller decides when the
// payload must be exhausted.
func decodeWriteTail(d *marshal.Decoder, op *WriteOp) {
	m := d.U32()
	if bad := m &^ lookup(op.Num).tail; bad != 0 {
		d.Fail(fmt.Errorf("%w: %#x", errTailBits, bad))
		return
	}
	v := reflect.ValueOf(op).Elem()
	for ; m != 0; m &= m - 1 {
		tailFields[bits.TrailingZeros32(m)].dec(d, v)
	}
}

// DecodeWrite unpacks a WriteOp on the kernel side.
func DecodeWrite(frame marshal.SyscallFrame, payload []byte) (WriteOp, error) {
	var op WriteOp
	err := DecodeWriteInto(frame, payload, &op)
	return op, err
}

// DecodeWriteInto is DecodeWrite into a slot the caller keeps: every
// field of *op is overwritten, and a failed decode leaves it zero.
func DecodeWriteInto(frame marshal.SyscallFrame, payload []byte, op *WriteOp) error {
	*op = WriteOp{
		Num:  frame.Num,
		PID:  proc.PID(frame.Args[0]),
		FD:   fs.FD(frame.Args[1]),
		VA:   mmu.VAddr(frame.Args[2]),
		Len:  frame.Args[3],
		Size: frame.Args[4],
	}
	d := marshal.NewDecoder(payload)
	decodeWriteTail(d, op)
	if err := d.Finish(); err != nil {
		*op = WriteOp{}
		return fmt.Errorf("sys: write op decode: %w", err)
	}
	return nil
}

// EncodeRead packs a ReadOp, into one allocation of exactly its size.
// The witness bit rides in the sixth register, so an unchecked read pays
// nothing for it.
func EncodeRead(op ReadOp) (marshal.SyscallFrame, []byte) {
	return appendRead(make([]byte, 0, 4+len(op.Path)+8), &op)
}

// appendRead is EncodeRead into buf's storage, which it reuses, grown as
// it goes.
func appendRead(buf []byte, op *ReadOp) (marshal.SyscallFrame, []byte) {
	frame := marshal.SyscallFrame{Num: op.Num}
	frame.Args[0] = uint64(op.PID)
	frame.Args[1] = uint64(op.FD)
	frame.Args[3] = op.Len
	if op.Witness {
		frame.Args[5] = 1
	}
	e := marshal.NewEncoder(buf)
	e.String(op.Path)
	e.U64(op.Off)
	return frame, e.Bytes()
}

// DecodeRead unpacks a ReadOp. Its path is read by reference, like a
// write's (tailField.dec): a read keeps nothing of it.
func DecodeRead(frame marshal.SyscallFrame, payload []byte) (ReadOp, error) {
	op := ReadOp{
		Num:     frame.Num,
		PID:     proc.PID(frame.Args[0]),
		FD:      fs.FD(frame.Args[1]),
		Len:     frame.Args[3],
		Witness: frame.Args[5] != 0,
	}
	d := marshal.NewDecoder(payload)
	op.Path = d.StringRef()
	op.Off = d.U64()
	if err := d.Finish(); err != nil {
		return ReadOp{}, fmt.Errorf("sys: read op decode: %w", err)
	}
	return op, nil
}

// EncodeResp packs a Resp for the return crossing. A reply that carries
// nothing past its errno and value is the register frame alone, with no
// payload; any other is one allocation of exactly its encoded size. The
// kernel-side fields (Freed, Unpinned, Ino, Off, Run, Witness) never
// cross.
func EncodeResp(r Resp) (marshal.RetFrame, []byte) { return AppendResp(nil, &r) }

// AppendResp is EncodeResp of a response where it already sits — the
// issuer's slot the kernel answered into — without copying it, into
// buf's storage, which it reuses: a reply buffer the handle lends
// (ReplyHandler), grown to the reply's exact size where it is too short,
// or nil for a reply of its own. A reply that is the register frame
// alone leaves buf untouched and returns no payload.
func AppendResp(buf []byte, r *Resp) (marshal.RetFrame, []byte) {
	ret := marshal.RetFrame{Value: r.Val, Errno: uint64(r.Errno)}
	if len(r.Data) == 0 && r.Stat == (fs.Stat{}) && len(r.Entries) == 0 &&
		r.Wait == (proc.WaitResult{}) && r.Sig == 0 && !r.SigOK {
		return ret, nil
	}
	size := 51 + len(r.Data) // fixed-width fields and length prefixes
	for i := range r.Entries {
		size += 13 + len(r.Entries[i].Name)
	}
	if cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	e := marshal.NewEncoder(buf)
	e.BytesField(r.Data)
	e.U64(uint64(r.Stat.Ino)).U8(uint8(r.Stat.Kind)).U64(r.Stat.Size).I64(int64(r.Stat.Nlink))
	e.U32(uint32(len(r.Entries)))
	for _, ent := range r.Entries {
		e.String(ent.Name)
		e.U64(uint64(ent.Ino))
		e.U8(uint8(ent.Kind))
	}
	e.U64(uint64(r.Wait.PID)).I64(int64(r.Wait.ExitCode))
	e.U8(uint8(r.Sig))
	e.Bool(r.SigOK)
	return ret, e.Bytes()
}

// An encoded batch entry is its five register words (batchOpHead) and its
// write tail; an encoded completion is three words and its data's length
// prefix (batchCompSize) and then the data.
const (
	batchOpHead   = 40
	batchCompSize = 28
)

// EncodeBatch packs a submission vector for one NumBatch crossing. The
// process identity travels once in the frame — DecodeBatch stamps it
// onto every op, so a batch cannot smuggle operations on behalf of
// another process. The payload is one allocation of exactly its size.
func EncodeBatch(pid proc.PID, ops []WriteOp) (marshal.SyscallFrame, []byte) {
	size := 4
	for i := range ops {
		_, n := writeTail(&ops[i])
		size += batchOpHead + n
	}
	return appendBatch(make([]byte, 0, size), pid, ops)
}

// appendBatch is EncodeBatch into buf's storage, which it reuses, grown
// as it goes: each op's tail is walked once.
func appendBatch(buf []byte, pid proc.PID, ops []WriteOp) (marshal.SyscallFrame, []byte) {
	frame := marshal.SyscallFrame{Num: NumBatch}
	frame.Args[0] = uint64(pid)
	frame.Args[1] = uint64(len(ops))
	e := marshal.NewEncoder(buf)
	e.U32(uint32(len(ops)))
	for i := range ops {
		op := &ops[i]
		e.U64(op.Num)
		e.U64(uint64(op.FD))
		e.U64(uint64(op.VA))
		e.U64(op.Len)
		e.U64(op.Size)
		encodeWriteTail(e, op)
	}
	return frame, e.Bytes()
}

// DecodeBatch unpacks a NumBatch submission on the kernel side.
func DecodeBatch(frame marshal.SyscallFrame, payload []byte) ([]WriteOp, error) {
	return DecodeBatchInto(frame, payload, nil)
}

// DecodeBatchInto is DecodeBatch into ops's storage, which it reuses,
// grown where it is too short: every op it returns is overwritten
// whole. On an error it returns ops emptied, for the next decode. The
// ops' bytes alias payload.
func DecodeBatchInto(frame marshal.SyscallFrame, payload []byte, ops []WriteOp) ([]WriteOp, error) {
	ops = ops[:0]
	if frame.Num != NumBatch {
		return ops, fmt.Errorf("sys: batch decode: frame num %d is not NumBatch", frame.Num)
	}
	pid := proc.PID(frame.Args[0])
	d := marshal.NewDecoder(payload)
	n := d.U32()
	if uint64(n) != frame.Args[1] {
		return ops, fmt.Errorf("sys: batch decode: frame count %d != payload count %d",
			frame.Args[1], n)
	}
	if uint64(n)*(batchOpHead+4) > uint64(len(payload)) {
		// Every encoded op is at least its register words and its tail's
		// mask; a count the payload cannot hold is corrupt, not merely
		// truncated, and must not size the vector.
		return ops, fmt.Errorf("sys: batch decode: count %d exceeds payload", n)
	}
	ops = slices.Grow(ops, int(n))[:n]
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		op := &ops[i]
		*op = WriteOp{
			PID:  pid,
			Num:  d.U64(),
			FD:   fs.FD(d.U64()),
			VA:   mmu.VAddr(d.U64()),
			Len:  d.U64(),
			Size: d.U64(),
		}
		decodeWriteTail(d, op)
	}
	if err := d.Finish(); err != nil {
		return ops[:0], fmt.Errorf("sys: batch decode: %w", err)
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
	r.Sig = proc.Signal(d.U8())
	r.SigOK = d.Bool()
	if err := d.Finish(); err != nil {
		return Resp{}, fmt.Errorf("sys: resp decode: %w", err)
	}
	return r, nil
}
