package marshal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/verified-os/vnros/internal/verifier"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.U8(0xab).U16(0xcdef).U32(0xdeadbeef).U64(0x0123456789abcdef).I64(-42).Bool(true).Bool(false)
	d := NewDecoder(e.Bytes())
	if d.U8() != 0xab || d.U16() != 0xcdef || d.U32() != 0xdeadbeef {
		t.Fatal("scalar mismatch")
	}
	if d.U64() != 0x0123456789abcdef || d.I64() != -42 || !d.Bool() || d.Bool() {
		t.Fatal("wide scalar mismatch")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestWireFormatIsLittleEndian(t *testing.T) {
	e := NewEncoder(nil)
	e.U32(0x01020304)
	want := []byte{4, 3, 2, 1}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("wire = %x", e.Bytes())
	}
}

func TestBytesAndString(t *testing.T) {
	e := NewEncoder(nil)
	e.BytesField([]byte{1, 2, 3}).String("héllo").BytesField(nil)
	d := NewDecoder(e.Bytes())
	if !bytes.Equal(d.BytesField(), []byte{1, 2, 3}) {
		t.Fatal("bytes mismatch")
	}
	if d.String() != "héllo" {
		t.Fatal("string mismatch")
	}
	if got := d.BytesField(); len(got) != 0 {
		t.Fatalf("nil bytes decoded as %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrorsSticky(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.U64() // fails
	if d.Err() == nil {
		t.Fatal("no error after short read")
	}
	if v := d.U8(); v != 0 {
		t.Fatal("decode after error returned data")
	}
	if !errors.Is(d.Finish(), ErrShortBuffer) {
		t.Fatalf("Finish = %v", d.Finish())
	}
}

func TestTrailingDetected(t *testing.T) {
	e := NewEncoder(nil)
	e.U32(1).U32(2)
	d := NewDecoder(e.Bytes())
	_ = d.U32()
	if !errors.Is(d.Finish(), ErrTrailing) {
		t.Fatalf("Finish = %v", d.Finish())
	}
}

func TestDecodedBytesAreCopies(t *testing.T) {
	e := NewEncoder(nil)
	e.BytesField([]byte("abc"))
	wire := e.Bytes()
	d := NewDecoder(wire)
	got := d.BytesField()
	wire[4] = 'Z' // mutate the wire after decode
	if string(got) != "abc" {
		t.Fatal("decoded bytes alias the wire buffer")
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(a uint64, b []byte, c string, d bool, e uint16) bool {
		if len(b) > 1<<16 {
			b = b[:1<<16]
		}
		enc := NewEncoder(nil)
		enc.U64(a).BytesField(b).String(c).Bool(d).U16(e)
		dec := NewDecoder(enc.Bytes())
		ga := dec.U64()
		gb := dec.BytesField()
		gc := dec.String()
		gd := dec.Bool()
		ge := dec.U16()
		return ga == a && bytes.Equal(gb, b) && gc == c && gd == d && ge == e && dec.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestABIPackUnpack(t *testing.T) {
	f, err := PackArgs(9, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Num != 9 || f.Args[0] != 1 || f.Args[2] != 3 || f.Args[3] != 0 {
		t.Fatalf("frame = %+v", f)
	}
	args, err := UnpackArgs(f, 3)
	if err != nil || len(args) != 3 || args[1] != 2 {
		t.Fatalf("unpack = %v, %v", args, err)
	}
	if _, err := UnpackArgs(f, 7); !errors.Is(err, ErrTooManyArgs) {
		t.Fatal("7-arg unpack accepted")
	}
}

func TestRetFrame(t *testing.T) {
	if !(RetFrame{Value: 5}).OK() {
		t.Error("errno 0 not OK")
	}
	if (RetFrame{Errno: 2}).OK() {
		t.Error("errno 2 reported OK")
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 5})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}

// TestStringRefAliasesTheBuffer: StringRef reads what String reads, but
// over the decoder's buffer — a write to the buffer shows in it — while
// String's copy stays as decoded; an empty string reads as "".
func TestStringRefAliasesTheBuffer(t *testing.T) {
	buf := NewEncoder(nil).String("name").String("name").String("").Bytes()
	d := NewDecoder(buf)
	ref, cp, empty := d.StringRef(), d.String(), d.StringRef()
	if err := d.Finish(); err != nil || ref != "name" || cp != "name" || empty != "" {
		t.Fatalf("decoded %q, %q, %q, %v", ref, cp, empty, err)
	}
	for i := range buf {
		buf[i] = 'x'
	}
	if ref != "xxxx" || cp != "name" {
		t.Errorf("after the buffer changed: StringRef reads %q (want the buffer's xxxx), String %q (want its copy)", ref, cp)
	}
}
