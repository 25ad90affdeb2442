package sys

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/proc"
)

// batchableOps returns one representative Op per batch-encodable
// syscall, exercising every field each op carries on the wire.
func batchableOps() []Op {
	return []Op{
		OpOpen("/ring/a.txt", OCreate|ORdWr),
		OpClose(7),
		OpRead(3, 4096),
		OpWrite(4, []byte("submission queue payload")),
		OpSeek(5, -12, fs.SeekEnd),
		OpTruncate(6, 1<<20),
		OpMkdir("/ring"),
		OpUnlink("/ring/old"),
		OpRmdir("/ring/empty"),
		OpRename("/ring/a", "/ring/b"),
		OpLink("/ring/b", "/ring/c"),
	}
}

func TestBatchCodecRoundTripEveryOp(t *testing.T) {
	ops := batchableOps()
	ws := make([]WriteOp, len(ops))
	for i, op := range ops {
		if !IsBatchableOp(op.Num()) {
			t.Fatalf("constructor produced non-batchable op %s", OpName(op.Num()))
		}
		ws[i] = op.w.request(42)
	}
	frame, payload := EncodeBatch(42, ws)
	got, err := DecodeBatch(frame, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ws) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ws))
	}
	for i := range ws {
		if !reflect.DeepEqual(normalizeOp(got[i]), normalizeOp(ws[i])) {
			t.Errorf("op %d (%s) round trip:\n got %+v\nwant %+v",
				i, OpName(ws[i].Num), got[i], ws[i])
		}
	}
}

func TestBatchCodecStampsFramePID(t *testing.T) {
	// The PID travels once in the frame; whatever the payload claimed,
	// decoded ops carry the frame's identity.
	ws := []WriteOp{{Num: NumWrite, PID: 999, FD: 3, Data: []byte("x")}}
	frame, payload := EncodeBatch(7, ws)
	got, err := DecodeBatch(frame, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].PID != 7 {
		t.Errorf("decoded PID = %d, want frame PID 7", got[0].PID)
	}
}

func TestBatchCodecRejectsCorruptCounts(t *testing.T) {
	frame, payload := EncodeBatch(1, []WriteOp{{Num: NumClose, FD: 3}})
	frame.Args[1] = 5 // frame/payload count mismatch
	if _, err := DecodeBatch(frame, payload); err == nil {
		t.Error("count mismatch decoded without error")
	}
	frame2, payload2 := EncodeBatch(1, []WriteOp{{Num: NumClose, FD: 3}})
	if _, err := DecodeBatch(frame2, payload2[:len(payload2)-3]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := DecodeBatch(marshal.SyscallFrame{Num: NumWrite}, nil); err == nil {
		t.Error("non-batch frame decoded as batch")
	}
}

func TestBatchRespCodecRoundTrip(t *testing.T) {
	comps := []Completion{
		{Op: NumOpen, Errno: EOK, Val: 3},
		{Op: NumRead, Errno: EOK, Val: 5, Data: []byte("hello")},
		{Op: NumWrite, Errno: EBADF},
		{Op: NumBatch, Errno: ENOSYS},
	}
	ret, payload := EncodeBatchResp(comps, EOK)
	got, errno, err := DecodeBatchResp(ret, payload)
	if err != nil || errno != EOK {
		t.Fatalf("decode: %v errno %v", err, errno)
	}
	for i := range comps {
		want := comps[i]
		if len(want.Data) == 0 {
			want.Data = nil
		}
		g := got[i]
		if len(g.Data) == 0 {
			g.Data = nil
		}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("completion %d round trip: got %+v want %+v", i, g, want)
		}
	}
	// Batch-level errno survives with an empty queue.
	ret2, p2 := EncodeBatchResp(nil, EINVAL)
	got2, errno2, err := DecodeBatchResp(ret2, p2)
	if err != nil || errno2 != EINVAL || len(got2) != 0 {
		t.Errorf("empty queue: %v %v %v", got2, errno2, err)
	}
}

func TestSubmitBatchFlow(t *testing.T) {
	_, s := newSysPair(t)
	comps, e := s.SubmitWait([]Op{
		OpMkdir("/ring"),
		OpOpen("/ring/f", OCreate|ORdWr),
	})
	if e != EOK {
		t.Fatal(e)
	}
	fd := fs.FD(comps[1].Val)
	if comps[0].Errno != EOK || comps[1].Errno != EOK {
		t.Fatalf("setup completions: %+v", comps)
	}

	comps, e = s.SubmitWait([]Op{
		OpWrite(fd, []byte("hello ")),
		OpWrite(fd, []byte("ring")),
		OpSeek(fd, 0, fs.SeekSet),
		OpRead(fd, 10),
		OpTruncate(fd, 5),
		OpClose(fd),
	})
	if e != EOK {
		t.Fatal(e)
	}
	wantVals := []uint64{6, 4, 0, 10, 0, 0}
	for i, c := range comps {
		if c.Errno != EOK {
			t.Fatalf("completion %d (%s): %v", i, OpName(c.Op), c.Errno)
		}
		if c.Val != wantVals[i] {
			t.Errorf("completion %d (%s): val %d, want %d", i, OpName(c.Op), c.Val, wantVals[i])
		}
	}
	if string(comps[3].Data) != "hello ring" {
		t.Errorf("batched read data = %q", comps[3].Data)
	}
	if err := s.ContractErr(); err != nil {
		t.Fatalf("contract violation on a correct kernel: %v", err)
	}
}

func TestSubmitEmptyAndAsync(t *testing.T) {
	_, s := newSysPair(t)
	if comps, err := s.SubmitOpts(nil, SubmitOptions{}).Wait(); err != ErrBatchEmpty || comps != nil {
		t.Errorf("empty submit = %v, %v (want ErrBatchEmpty)", comps, err)
	}
	// Submit, then Wait: the batch crosses at its Wait.
	fd, e := s.Open("/async", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	b := s.SubmitOpts([]Op{OpWrite(fd, []byte("deferred"))}, SubmitOptions{})
	comps, err := b.Wait()
	if err != nil || comps[0].Errno != EOK || comps[0].Val != 8 {
		t.Fatalf("async batch: %+v %v", comps, err)
	}
	if err := s.ContractErr(); err != nil {
		t.Fatal(err)
	}
}

func TestWritevReadv(t *testing.T) {
	_, s := newSysPair(t)
	fd, e := s.Open("/vec", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	n, e := s.Writev(fd, [][]byte{[]byte("alpha "), []byte("beta "), []byte("gamma")})
	if e != EOK || n != 16 {
		t.Fatalf("writev = %d, %v", n, e)
	}
	if _, e := s.Seek(fd, 0, fs.SeekSet); e != EOK {
		t.Fatal(e)
	}
	bufs := [][]byte{make([]byte, 6), make([]byte, 5), make([]byte, 32)}
	n, e = s.Readv(fd, bufs)
	if e != EOK || n != 16 {
		t.Fatalf("readv = %d, %v", n, e)
	}
	if got := string(bufs[0]) + string(bufs[1]) + string(bufs[2][:5]); got != "alpha beta gamma" {
		t.Errorf("readv bytes = %q", got)
	}
	if err := s.ContractErr(); err != nil {
		t.Fatal(err)
	}
}

// batchCorruptingHandler flips a byte in the k-th completion's read
// data — a kernel that corrupts exactly one op inside a batch.
type batchCorruptingHandler struct {
	directHandler
	corruptIdx int
}

func (h *batchCorruptingHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	ret, out := h.directHandler.Syscall(frame, payload)
	if frame.Num != NumBatch {
		return ret, out
	}
	comps, errno, err := DecodeBatchResp(ret, out)
	if err != nil || errno != EOK || h.corruptIdx >= len(comps) {
		return ret, out
	}
	if c := &comps[h.corruptIdx]; len(c.Data) > 0 {
		c.Data[0] ^= 0xff
	}
	return EncodeBatchResp(comps, errno)
}

func TestBatchContractViolationDoesNotCorruptNeighbours(t *testing.T) {
	// Regression: a contract violation on op k must be detected AND the
	// completions for ops != k must come back untouched.
	k := newTestKernel()
	h := &batchCorruptingHandler{directHandler: directHandler{k: k}, corruptIdx: 2}
	s := NewSys(proc.InitPID, h)
	s.EnableContract()

	fd, e := s.Open("/victim", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	if _, e := s.Write(fd, []byte("abcdefgh")); e != EOK {
		t.Fatal(e)
	}
	if _, e := s.Seek(fd, 0, fs.SeekSet); e != EOK {
		t.Fatal(e)
	}
	if err := s.ContractErr(); err != nil {
		t.Fatalf("violation before the batch: %v", err)
	}

	comps, e := s.SubmitWait([]Op{
		OpRead(fd, 2), // "ab"
		OpRead(fd, 2), // "cd"
		OpRead(fd, 2), // "ef" -> corrupted to xf
		OpRead(fd, 2), // "gh"
	})
	if e != EOK {
		t.Fatal(e)
	}
	if err := s.ContractErr(); err == nil {
		t.Fatal("corrupted batched read passed the contract check")
	}
	want := []string{"ab", "cd", "", "gh"}
	for i, c := range comps {
		if i == 2 {
			continue // the corrupted op
		}
		if c.Errno != EOK || string(c.Data) != want[i] {
			t.Errorf("completion %d corrupted by neighbour's violation: %+v", i, c)
		}
	}
	if !bytes.Equal(comps[2].Data, []byte{'e' ^ 0xff, 'f'}) {
		t.Errorf("corrupted completion data = %q", comps[2].Data)
	}
}

func TestBatchChecksCleanKernelAcrossShapes(t *testing.T) {
	// Mixed batches on a correct kernel never trip the checker, whatever
	// their shape: mid-batch opens, namespace ops beside witnessed file
	// ops, and a write through the batch-opened alias of a descriptor the
	// batch also writes.
	_, s := newSysPair(t)
	if e := s.Mkdir("/d"); e != EOK {
		t.Fatal(e)
	}
	fd, e := s.Open("/d/f", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	// Descriptors are numbered in open order, so each batch's mid-batch
	// open returns the next number.
	for i, c := range []struct {
		batch []Op
		read  int // index of the read after the seek
		want  string
	}{
		{[]Op{
			OpWrite(fd, []byte("0123456789")),
			OpOpen("/d/f", ORdOnly),
			OpSeek(fd, 2, fs.SeekSet),
			OpRead(fd, 4),
			OpLink("/d/f", "/d/g"),
			OpRename("/d/g", "/d/h"),
			OpUnlink("/d/h"),
		}, 3, "2345"},
		{[]Op{
			OpSeek(fd, 0, fs.SeekSet),
			OpWrite(fd, []byte("0123456789")),
			OpOpen("/d/f", ORdWr),
			OpWrite(fd+2, []byte("AB")),
			OpSeek(fd, 1, fs.SeekSet),
			OpRead(fd, 4),
		}, 5, "B234"},
	} {
		alias := fd + 1 + fs.FD(i)
		comps, e := s.SubmitWait(c.batch)
		if e != EOK {
			t.Fatal(e)
		}
		for k, comp := range comps {
			if comp.Errno != EOK {
				t.Fatalf("batch %d completion %d (%s): %v", i, k, OpName(comp.Op), comp.Errno)
			}
			if comp.Op == NumOpen && fs.FD(comp.Val) != alias {
				t.Fatalf("batch %d: mid-batch open returned fd %d, want %d", i, comp.Val, alias)
			}
		}
		if string(comps[c.read].Data) != c.want {
			t.Errorf("batch %d: read after seek = %q, want %q", i, comps[c.read].Data, c.want)
		}
		if e := s.Close(alias); e != EOK {
			t.Fatal(e)
		}
	}
	// An append descriptor, per call and in a two-entry run: both writes
	// land at EOF although the cursor says otherwise, which write_spec
	// allows only when the witness carries the descriptor's append flag.
	app, e := s.Open("/d/f", OWrOnly|OAppend)
	if e != EOK {
		t.Fatal(e)
	}
	if n, e := s.Write(app, []byte("xy")); e != EOK || n != 2 {
		t.Fatalf("append: %d %v", n, e)
	}
	comps, e := s.SubmitWait([]Op{OpSeek(app, 0, fs.SeekSet), OpWrite(app, []byte("zw"))})
	if e != EOK || comps[0].Errno != EOK || comps[1].Errno != EOK || comps[1].Val != 2 {
		t.Fatalf("batched append: %+v %v", comps, e)
	}
	if st, e := s.Stat("/d/f"); e != EOK || st.Size != 14 {
		t.Fatalf("after the appends: size %d %v, want 14", st.Size, e)
	}
	if err := s.ContractErr(); err != nil {
		t.Fatalf("false positive on a correct kernel: %v", err)
	}
}

func TestSubmitValidatesOpenFlags(t *testing.T) {
	_, s := newSysPair(t)
	if _, e := s.SubmitWait([]Op{OpOpen("/x", OWrOnly|ORdWr)}); e != EINVAL {
		t.Errorf("batched open with contradictory modes: %v, want EINVAL", e)
	}
}

func TestOpenFlagValidate(t *testing.T) {
	cases := []struct {
		f    OpenFlag
		want Errno
	}{
		{ORdOnly, EOK},
		{OCreate | ORdWr, EOK},
		{OCreate | ORdWr | OTrunc, EOK},
		{OWrOnly | OAppend, EOK},
		{OTrunc | OAppend, EOK},
		{OWrOnly | ORdWr, EINVAL},
		{ORdOnly | OTrunc, EINVAL},
		{OpenFlag(1 << 20), EINVAL},
	}
	for _, c := range cases {
		if got := c.f.Validate(); got != c.want {
			t.Errorf("Validate(%#x) = %v, want %v", uint64(c.f), got, c.want)
		}
	}
	_, s := newSysPair(t)
	if _, e := s.Open("/x", OWrOnly|ORdWr); e != EINVAL {
		t.Errorf("Sys.Open accepted contradictory modes: %v", e)
	}
	// Kernel-side validation catches hand-rolled frames that skip the
	// user-side check.
	k := newTestKernel()
	r := k.DispatchWrite(WriteOp{Num: NumOpen, PID: proc.InitPID, Path: "/x",
		Flags: uint64(ORdOnly | OTrunc)})
	if r.Errno != EINVAL {
		t.Errorf("kernel accepted ORdOnly|OTrunc: %v", r.Errno)
	}
}

func TestErrnoErr(t *testing.T) {
	if err := EOK.Err(); err != nil {
		t.Errorf("EOK.Err() = %v", err)
	}
	err := ENOENT.Err()
	if err == nil {
		t.Fatal("ENOENT.Err() = nil")
	}
	var e Errno
	if !errorsAs(err, &e) || e != ENOENT {
		t.Errorf("Err() lost the errno: %v", err)
	}
}

// errorsAs is errors.As without importing errors in this file twice —
// kept tiny and local.
func errorsAs(err error, target *Errno) bool {
	e, ok := err.(Errno)
	if ok {
		*target = e
	}
	return ok
}

func TestSubmitConcurrentWithScalars(t *testing.T) {
	// One Sys handle, scalar calls and batches from several goroutines:
	// handler-level serialization (lockedHandler here, ctxMu in core)
	// must keep this safe. The -race CI lane runs this package.
	k := newTestKernel()
	h := &lockedHandler{h: directHandler{k: k}}
	s := NewSys(proc.InitPID, h)
	s.EnableContract()
	fd, e := s.Open("/conc", OCreate|ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ops := []Op{
					OpWrite(fd, []byte(fmt.Sprintf("g%d-%d", g, i))),
					OpSeek(fd, 0, fs.SeekEnd),
				}
				if _, e := s.SubmitWait(ops); e != EOK {
					t.Errorf("goroutine %d batch %d: %v", g, i, e)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if e := s.Close(fd); e != EOK {
		t.Fatal(e)
	}
	if err := s.ContractErr(); err != nil {
		t.Fatalf("contract violation on a correct kernel: %v", err)
	}
}

// replyHandler answers every crossing with one fixed reply: a stub
// kernel that allocates nothing.
type replyHandler struct {
	ret marshal.RetFrame
	out []byte
}

func (h *replyHandler) Syscall(marshal.SyscallFrame, []byte) (marshal.RetFrame, []byte) {
	return h.ret, h.out
}

// ringSyncOps is a ring_sync-shaped batch: a seek and sixteen 256 B
// writes on fd, and the completion queue a kernel answers it with.
func ringSyncOps(fd fs.FD) ([]Op, []Completion) {
	ops := []Op{OpSeek(fd, 0, fs.SeekSet)}
	comps := []Completion{{Op: NumSeek}}
	for range 16 {
		ops = append(ops, OpWrite(fd, make([]byte, 256)))
		comps = append(comps, Completion{Op: NumWrite, Val: 256})
	}
	return ops, comps
}

// TestCrossBatchAllocatesOnlyItsCompletions pins the handle's half of a
// warm batch crossing: the request vector and its encoding are the
// handle's, reused by every batch, so against a kernel that allocates
// nothing a crossing allocates one object, the completion queue it
// returns.
func TestCrossBatchAllocatesOnlyItsCompletions(t *testing.T) {
	ops, comps := ringSyncOps(3)
	ret, out := EncodeBatchResp(comps, EOK)
	s := NewSys(proc.InitPID, &replyHandler{ret: ret, out: out})
	cross := func() {
		s.call.Lock()
		got, e := s.crossBatch(ops)
		s.call.Unlock()
		if e != EOK || len(got) != len(ops) {
			t.Fatalf("crossing: %d completions, %v", len(got), e)
		}
	}
	cross()
	if n := testing.AllocsPerRun(100, cross); n != 1 {
		t.Errorf("a warm crossing allocates %.0f objects, want 1: its completion queue", n)
	}
}

// TestUndecodableCompletionsAreAViolation: a kernel whose completion
// queue does not decode has broken the batch's contract, as one that
// answers the wrong number of completions has. The batch fails with
// EINVAL and the handle records a violation naming it.
func TestUndecodableCompletionsAreAViolation(t *testing.T) {
	ops, comps := ringSyncOps(3)
	ret, out := EncodeBatchResp(comps, EOK)
	s := NewSys(proc.InitPID, &replyHandler{ret: ret, out: out[:len(out)-5]})
	if got, e := s.SubmitWait(ops); e != EINVAL || got != nil {
		t.Fatalf("a truncated completion queue: %d completions, %v; want none and EINVAL", len(got), e)
	}
	err := s.ContractErr()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("batch of %d ops", len(ops))) {
		t.Fatalf("ContractErr = %v, want a violation naming the batch of %d ops", err, len(ops))
	}
}

// heldNothing reports whether every element of v's storage, past its
// length too, is its zero value: a recycled buffer that keeps nothing a
// batch referenced.
func heldNothing[T any](v []T) bool {
	for _, e := range v[:cap(v)] {
		if !reflect.ValueOf(e).IsZero() {
			return false
		}
	}
	return true
}

// TestCrossBatchKeepsBoundedBuffers: the request vector and request
// buffer a handle reuses keep nothing of the batch they carried — not
// the caller's payloads — and a batch over nr.SlotBytes does not pin
// its buffers for the next one: after a batch of a hundred 1 KiB writes
// the handle keeps neither, and a small batch after it keeps both, small.
func TestCrossBatchKeepsBoundedBuffers(t *testing.T) {
	h := &replyHandler{}
	s := NewSys(proc.InitPID, h)
	cross := func(ops []Op, comps []Completion) {
		h.ret, h.out = EncodeBatchResp(comps, EOK)
		s.call.Lock()
		got, e := s.crossBatch(ops)
		s.call.Unlock()
		if e != EOK || len(got) != len(ops) {
			t.Fatalf("crossing: %d completions, %v", len(got), e)
		}
	}
	var big []Op
	var bigComps []Completion
	for range 100 {
		big = append(big, OpWrite(3, make([]byte, 1<<10)))
		bigComps = append(bigComps, Completion{Op: NumWrite, Val: 1 << 10})
	}
	cross(big, bigComps)
	if s.batchOps != nil || s.req != nil {
		t.Errorf("after a %d-op batch the handle keeps a %d-op vector and a %d B buffer, want neither",
			len(big), cap(s.batchOps), cap(s.req))
	}
	small, comps := ringSyncOps(3)
	cross(small, comps)
	if cap(s.batchOps) < len(small) || len(s.batchOps) != 0 || !heldNothing(s.batchOps) {
		t.Errorf("after a %d-op batch the handle's vector is %d of %d, holding its entries: %v",
			len(small), len(s.batchOps), cap(s.batchOps), !heldNothing(s.batchOps))
	}
	if cap(s.req) == 0 || cap(s.req) > nr.SlotBytes {
		t.Errorf("after a small batch the handle keeps a %d B request buffer, want (0, %d]", cap(s.req), nr.SlotBytes)
	}
}

// destStub is a stub kernel that allocates nothing and takes a read's
// destination: a batch gets the fixed reply of its replyHandler, every
// other crossing the register frame alone. It keeps the last request it
// was lent, for the test to look at.
type destStub struct {
	replyHandler
	lent []byte
}

func (h *destStub) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	h.lent = payload
	if frame.Num == NumBatch {
		return h.replyHandler.Syscall(frame, payload)
	}
	return marshal.RetFrame{}, nil
}

func (h *destStub) SyscallInto(frame marshal.SyscallFrame, payload []byte, dst []byte) marshal.RetFrame {
	h.lent = payload
	return marshal.RetFrame{Value: uint64(len(dst))}
}

// TestPerCallCrossingAllocatesNothing pins the handle's half of a
// per-call crossing: against a kernel that allocates nothing, a warm
// Seek, destination Read and destination Pread allocate nothing, and nor
// do a Write, an Open, a Close, a Stat, an MMap and an MUnmap — none of
// them can park, so each holds the handle and encodes its request into
// the handle's request buffer, which it lends to the kernel for the call
// (a write's bytes too: the log copies what it keeps of them). A write
// over nr.SlotBytes is the exception: it crosses in an exact request of
// its own, which the log keeps by reference instead of copying. The
// buffer is the one a batch crosses in, so after a Writev over
// nr.SlotBytes a Seek finds it dropped and crosses in a buffer of its
// own size.
func TestPerCallCrossingAllocatesNothing(t *testing.T) {
	h := &destStub{}
	s := NewSys(proc.InitPID, h)
	const fd = 3
	buf := make([]byte, 4096)
	must := func(what string, n uint64, e Errno, want int) {
		if e != EOK || n != uint64(want) {
			t.Fatalf("%s: %d, %v; want %d", what, n, e, want)
		}
	}
	seek := func() {
		n, e := s.Seek(fd, 0, fs.SeekSet)
		must("seek", n, e, 0)
	}
	for _, c := range []struct {
		what string
		f    func()
	}{
		{"seek", seek},
		{"read", func() { n, e := s.Read(fd, buf); must("read", n, e, len(buf)) }},
		{"pread", func() { n, e := s.Pread(fd, buf, 4096); must("pread", n, e, len(buf)) }},
		{"write", func() { n, e := s.Write(fd, buf[:512]); must("write", n, e, 0) }},
		{"open", func() { _, e := s.Open("/a/b", ORdWr); must("open", 0, e, 0) }},
		{"close", func() { must("close", 0, s.Close(fd), 0) }},
		{"stat", func() { _, e := s.Stat("/a/b"); must("stat", 0, e, 0) }},
		{"mmap", func() { _, e := s.MMap(4096); must("mmap", 0, e, 0) }},
		{"munmap", func() { must("munmap", 0, s.MUnmap(UserVABase), 0) }},
	} {
		c.f()
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("a warm %s allocates %.0f objects, want none", c.what, n)
		}
		if unsafe.SliceData(h.lent) != unsafe.SliceData(s.req) || len(s.req) != 0 || !heldNothing(s.req) {
			t.Errorf("a %s's request is not the handle's request buffer, recycled after the call", c.what)
		}
	}
	big := make([]byte, nr.SlotBytes+1)
	write := func() {
		n, e := s.Write(fd, big)
		must("write", n, e, 0)
	}
	write()
	if n := testing.AllocsPerRun(100, write); n != 1 {
		t.Errorf("a warm %d B write allocates %.0f objects, want 1: its request", len(big), n)
	}
	if len(h.lent) != cap(h.lent) || unsafe.SliceData(h.lent) == unsafe.SliceData(s.req) {
		t.Errorf("a %d B write's request is %d B in a buffer of %d, the handle's: %v; want an exact one of its own",
			len(big), len(h.lent), cap(h.lent), unsafe.SliceData(h.lent) == unsafe.SliceData(s.req))
	}
	var bufs [][]byte
	var comps []Completion
	for range 100 {
		bufs = append(bufs, make([]byte, 1<<10))
		comps = append(comps, Completion{Op: NumWrite, Val: 1 << 10})
	}
	h.ret, h.out = EncodeBatchResp(comps, EOK)
	if n, e := s.Writev(fd, bufs); e != EOK || n != 100<<10 {
		t.Fatalf("writev: %d, %v", n, e)
	}
	if s.req != nil {
		t.Errorf("after a %d B Writev the handle keeps a %d B request buffer, want none", len(h.lent), cap(s.req))
	}
	seek()
	if cap(h.lent) > 64 {
		t.Errorf("a seek after a %d-op Writev crossed in a %d B buffer, want one of its own size", len(bufs), cap(h.lent))
	}
}

// holdProbe is a stub kernel that records, per syscall number, whether
// the handle was held across the crossing: a sibling's TryLock fails
// exactly when it is.
type holdProbe struct {
	s    *Sys
	held map[uint64]bool
}

func (h *holdProbe) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	free := h.s.call.TryLock()
	if free {
		h.s.call.Unlock()
	}
	h.held[frame.Num] = !free
	return marshal.RetFrame{}, nil
}

// TestOnlyParkingCallsLeaveTheHandle: every call holds its handle for
// the crossing, but a call that may park — its op row says so — holds
// nothing, so a sibling on the same handle can make the call that wakes
// it. Only a futex wait and a receive may park.
func TestOnlyParkingCallsLeaveTheHandle(t *testing.T) {
	h := &holdProbe{held: map[uint64]bool{}}
	s := NewSys(proc.InitPID, h)
	h.s = s
	const fd, sock, va = 3, SockID(1), UserVABase
	buf := make([]byte, 8)
	s.Open("/f", ORdWr)
	s.Close(fd)
	s.Read(fd, buf)
	s.Pread(fd, buf, 0)
	s.Write(fd, buf)
	s.Seek(fd, 0, fs.SeekSet)
	s.Truncate(fd, 0)
	s.Sync()
	s.Mkdir("/d")
	s.Unlink("/f")
	s.Rmdir("/d")
	s.Rename("/f", "/g")
	s.Link("/f", "/g")
	s.Stat("/f")
	s.ReadDir("/")
	s.PreadMap(fd, 0)
	s.PreadUnmap(va)
	s.Spawn("child")
	s.Wait()
	s.Kill(2, proc.SIGTERM)
	s.TakeSignal()
	s.GetPID()
	s.MMap(4096)
	s.MUnmap(va)
	s.FutexWait(va, 0)
	s.FutexWake(va, 1)
	s.MemRead(va, buf)
	s.MemWrite(va, buf)
	s.MemCAS32(va, 0, 1)
	s.SockBind(80)
	s.SockSend(sock, 1, 80, buf)
	s.SockRecv(sock)
	s.SockRecvBlocking(sock)
	s.SockClose(sock)
	s.Exit(0)
	for num, held := range h.held {
		if held == parks(num) {
			t.Errorf("%s: handle held across the crossing %v, may park %v", OpName(num), held, parks(num))
		}
	}
	for _, num := range []uint64{NumFutexWait, NumSockRecv} {
		if h.held[num] || !parks(num) {
			t.Errorf("%s parks without leaving the handle", OpName(num))
		}
	}
	// Every wire row crossed but a batch, which no method of Sys makes
	// per call.
	for num := uint64(0); num <= MaxOpNum; num++ {
		if _, crossed := h.held[num]; !crossed && opTable[num].class != classNone && num != NumBatch {
			t.Errorf("%s never crossed", OpName(num))
		}
	}
}
