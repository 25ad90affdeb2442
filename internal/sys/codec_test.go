package sys

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/proc"
)

// writeShapes are requests of the shapes the wire carries: no tail at
// all, one scalar, a path, data, the witness bit alone, each row that
// carries several fields with all of them set, and a number with no row,
// which may carry every field at once.
func writeShapes() []WriteOp {
	return []WriteOp{
		{Num: NumSync, PID: 1},
		{Num: NumSeek, PID: 1, FD: 3, Off: 4096},
		{Num: NumOpen, PID: 1, Path: "/a/b", Flags: uint64(OCreate | ORdWr)},
		{Num: NumWrite, PID: 1, FD: 3, Data: []byte("payload")},
		{Num: NumMMap, PID: 1, Size: 2 * mmu.L1PageSize},
		{Num: NumRead, PID: 1, FD: 3, Len: 512, Witness: true},
		{Num: NumSeek, PID: 1, FD: 3, Whence: 1, Off: -8, Witness: true},
		{Num: NumRename, PID: 1, Path: "/p", Path2: "/q"},
		{Num: NumKill, PID: 1, Target: 11, Sig: 10},
		{Num: NumSockSend, PID: 1, Sock: 14, Addr: 15, Port: 16, Data: []byte{1, 2}},
		{Num: NumSockBind, PID: 1, Port: 16, Word: 17},
		{
			Num: MaxInternalOpNum + 1, PID: 1, FD: 2, VA: 3, Len: 4, Size: 5, TID: 6,
			Flags: 7, Whence: 1, Off: -8, Code: 9, Sig: 10, Target: 11, Pri: 12, Core: 13,
			Path: "/p", Path2: "/q", Name: "n", Data: []byte{1, 2},
			Sock: 14, Addr: 15, Port: 16, Word: 17, Witness: true,
		},
	}
}

// respShapes are replies of each shape past the empty one.
func respShapes() []Resp {
	return []Resp{
		{Val: 3, Data: []byte("bytes")},
		{Stat: fs.Stat{Ino: 4, Kind: fs.KindDir, Size: 5, Nlink: 2}},
		{Entries: []fs.DirEntry{{Name: "x", Ino: 9, Kind: fs.KindFile}}},
		{Wait: proc.WaitResult{PID: 7, ExitCode: -1}},
		{TID: 8, Sig: 9, SigOK: true},
		{Errno: ENOENT, Freed: []mem.PAddr{0x3000}},
	}
}

// decodeCase is one of the four decoders under the frame of one valid
// payload. emptyOK marks a reply: its payload truncated to nothing is the
// data-less reply, not an error.
type decodeCase struct {
	name    string
	valid   []byte
	decode  func([]byte) error
	emptyOK bool
}

func decodeCases() []decodeCase {
	var cases []decodeCase
	for _, op := range writeShapes() {
		frame, payload := EncodeWrite(op)
		cases = append(cases, decodeCase{name: "write " + OpName(op.Num), valid: payload, decode: func(p []byte) error {
			_, err := DecodeWrite(frame, p)
			return err
		}})
	}
	frame, payload := EncodeBatch(1, writeShapes())
	cases = append(cases, decodeCase{name: "batch", valid: payload, decode: func(p []byte) error {
		_, err := DecodeBatch(frame, p)
		return err
	}})
	for i, r := range respShapes() {
		ret, payload := EncodeResp(r)
		cases = append(cases, decodeCase{name: fmt.Sprintf("resp %d", i), valid: payload, emptyOK: true, decode: func(p []byte) error {
			_, err := DecodeResp(ret, p)
			return err
		}})
	}
	comps := []Completion{{Op: NumWrite, Val: 3}, {Op: NumRead, Val: 2, Data: []byte("ab")}}
	ret, payload := EncodeBatchResp(comps, EOK)
	cases = append(cases, decodeCase{name: "batch resp", valid: payload, decode: func(p []byte) error {
		_, _, err := DecodeBatchResp(ret, p)
		return err
	}})
	return cases
}

// TestMalformedTailIsAnError: a payload that is not what its encoder
// writes is a decode error — which the kernel side answers with EINVAL —
// never a panic and never a value. Every truncation of every shape fails
// (but a reply truncated to nothing, which is the data-less reply); a
// payload whose leading word has bit 31 set fails (for a request, an
// undefined presence bit; for a reply, a length or count past the
// payload); and random bytes decode or fail without panicking.
func TestMalformedTailIsAnError(t *testing.T) {
	for _, c := range decodeCases() {
		if err := c.decode(c.valid); err != nil {
			t.Fatalf("%s: the valid payload fails: %v", c.name, err)
		}
		for k := 0; k < len(c.valid); k++ {
			if k == 0 && c.emptyOK {
				continue
			}
			if err := c.decode(c.valid[:k:k]); err == nil {
				t.Errorf("%s: truncated to %d of %d bytes, decodes", c.name, k, len(c.valid))
			}
		}
		lead := 0
		if c.name == "batch" {
			lead = 4 + batchOpHead // the first entry's mask
		}
		bad := append([]byte(nil), c.valid...)
		bad[lead+3] |= 0x80
		if err := c.decode(bad); err == nil {
			t.Errorf("%s: bit 31 of the leading word set, decodes", c.name)
		}
	}
	// Each presence bit a seek does not carry on its own — undefined, or
	// another op's field — through both request paths.
	for bit := 0; bit < 32; bit++ {
		if lookup(NumSeek).tail&(1<<bit) != 0 {
			continue
		}
		frame, payload := EncodeWrite(WriteOp{Num: NumSeek, Off: 1})
		payload[bit/8] |= 1 << (bit % 8)
		if _, err := DecodeWrite(frame, payload); !errors.Is(err, errTailBits) {
			t.Errorf("presence bit %d: %v, want errTailBits", bit, err)
		}
		frame, payload = EncodeBatch(1, []WriteOp{{Num: NumSeek, Off: 1}})
		payload[4+batchOpHead+bit/8] |= 1 << (bit % 8)
		if _, err := DecodeBatch(frame, payload); !errors.Is(err, errTailBits) {
			t.Errorf("batched, presence bit %d: %v, want errTailBits", bit, err)
		}
	}
	r := rand.New(rand.NewSource(30))
	cases := decodeCases()
	for i := 0; i < 10000; i++ {
		p := randBytes(r, r.Intn(160))
		if i%2 == 0 && len(p) >= 4 {
			// A defined mask, so the decode goes past it.
			binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)&tailDefined)
		}
		for _, c := range cases {
			func() {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("%s: decoding %x panics: %v", c.name, p, v)
					}
				}()
				_ = c.decode(p)
			}()
		}
	}
}

// TestDatalessRepliesAreTheFrame: the calls syscall_mix makes most —
// open, write, seek, close, mmap — answer with an errno and a value, so
// their replies cross as the register frame alone.
func TestDatalessRepliesAreTheFrame(t *testing.T) {
	k, frames := newTestKernelFrames()
	h := &directHandler{k: k, frames: frames}
	pid := proc.PID(k.DispatchWrite(WriteOp{Num: NumSpawn, PID: proc.InitPID, Name: "p"}).Val)
	call := func(op WriteOp) marshal.RetFrame {
		t.Helper()
		op.PID = pid
		ret, out := h.Syscall(EncodeWrite(op))
		if ret.Errno != uint64(EOK) || out != nil {
			t.Fatalf("%s: errno %v, %d payload bytes; want OK and no payload", OpName(op.Num), Errno(ret.Errno), len(out))
		}
		return ret
	}
	fd := fs.FD(call(WriteOp{Num: NumOpen, Path: "/f", Flags: uint64(OCreate | ORdWr)}).Value)
	call(WriteOp{Num: NumWrite, FD: fd, Data: []byte("data")})
	call(WriteOp{Num: NumSeek, FD: fd, Off: 1})
	call(WriteOp{Num: NumClose, FD: fd})
	call(WriteOp{Num: NumMMap, Size: mmu.L1PageSize})
}

// FuzzDecodeWrite: whatever the number and the bytes, DecodeWrite returns
// an error or a request, and a request it returns survives its own round
// trip. The seeds are the shapes and the round-trip generator's rows.
func FuzzDecodeWrite(f *testing.F) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 16; i++ {
		frame, payload := EncodeWrite(randomWriteOp(r))
		f.Add(frame.Num, payload)
	}
	for _, op := range writeShapes() {
		frame, payload := EncodeWrite(op)
		f.Add(frame.Num, payload)
	}
	f.Fuzz(func(t *testing.T, num uint64, payload []byte) {
		op, err := DecodeWrite(marshal.SyscallFrame{Num: num}, payload)
		if err != nil {
			return
		}
		got, err := DecodeWrite(EncodeWrite(op))
		if err != nil || !reflect.DeepEqual(normalizeOp(op), normalizeOp(got)) {
			t.Fatalf("decoded request does not round-trip (%v):\n  in  %+v\n  out %+v", err, op, got)
		}
	})
}

// FuzzDecodeResp: whatever the bytes, DecodeResp returns an error or a
// reply, and a reply it returns survives its own round trip.
func FuzzDecodeResp(f *testing.F) {
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 16; i++ {
		_, payload := EncodeResp(randomResp(r))
		f.Add(payload)
	}
	for _, resp := range respShapes() {
		_, payload := EncodeResp(resp)
		f.Add(payload)
	}
	ret := marshal.RetFrame{Value: 1}
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := DecodeResp(ret, payload)
		if err != nil {
			return
		}
		got, err := DecodeResp(EncodeResp(resp))
		if err != nil || !reflect.DeepEqual(normalizeResp(resp), normalizeResp(got)) {
			t.Fatalf("decoded reply does not round-trip (%v):\n  in  %+v\n  out %+v", err, resp, got)
		}
	})
}
