package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/sys"
)

// TestFileTooBigIsAnErrno: a write offset and a truncate size are the
// caller's words. Seek(fd, 1<<62); Write(fd, "x") used to reach
// make([]byte, end) inside the replicated apply and kill the kernel with
// "makeslice: len out of range" (Truncate(fd, 1<<62) did the same, and
// 1<<40 would have tried to allocate a terabyte). Past fs.MaxFileSize
// they are EFBIG — per call and as batch entries, on both kernels, with
// the contract on: the failed-transition witness (per call) and the
// batch's endpoint comparison hold the descriptor and the contents
// unchanged.
func TestFileTooBigIsAnErrno(t *testing.T) {
	const hostile = 1 << 62
	keep := []byte("keep")
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := Boot(Config{Cores: 2, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.Init()
			if err != nil {
				t.Fatal(err)
			}
			fd, e := h.Open("/victim", sys.OCreate|sys.ORdWr)
			if e != sys.EOK {
				t.Fatalf("open: %v", e)
			}
			if _, e := h.Write(fd, keep); e != sys.EOK {
				t.Fatalf("write: %v", e)
			}
			intact := func(when string) {
				t.Helper()
				got := make([]byte, 16)
				n, e := h.Pread(fd, got, 0)
				if e != sys.EOK || !bytes.Equal(got[:n], keep) {
					t.Errorf("%s: contents %q (%v), want %q", when, got[:n], e, keep)
				}
				if err := h.ContractErr(); err != nil {
					t.Errorf("%s: %v", when, err)
				}
			}

			// Per call.
			if pos, e := h.Seek(fd, hostile, fs.SeekSet); e != sys.EOK || pos != hostile {
				t.Fatalf("seek: %d, %v", pos, e)
			}
			if n, e := h.Write(fd, []byte("x")); e != sys.EFBIG || n != 0 {
				t.Errorf("write at 1<<62: %d, %v, want EFBIG", n, e)
			}
			if pos, e := h.Seek(fd, 0, fs.SeekCur); e != sys.EOK || pos != hostile {
				t.Errorf("cursor after the refused write: %d, %v", pos, e)
			}
			for _, size := range []uint64{hostile, 1 << 40, fs.MaxFileSize + 1} {
				if e := h.Truncate(fd, size); e != sys.EFBIG {
					t.Errorf("truncate to %#x: %v, want EFBIG", size, e)
				}
			}
			intact("per call")

			// As batch entries (on the sharded kernel the seek and the
			// write are entries of one NumFsRun on the owner shard).
			comps, e := h.SubmitWait([]sys.Op{
				sys.OpSeek(fd, 9, fs.SeekSet),
				sys.OpSeek(fd, hostile, fs.SeekSet),
				sys.OpWrite(fd, []byte("xyz")),
				sys.OpTruncate(fd, hostile),
				sys.OpSeek(fd, 0, fs.SeekSet),
				sys.OpRead(fd, 16),
			})
			if e != sys.EOK || len(comps) != 6 {
				t.Fatalf("batch: %v, %d completions", e, len(comps))
			}
			for i, want := range []sys.Errno{sys.EOK, sys.EOK, sys.EFBIG, sys.EFBIG, sys.EOK, sys.EOK} {
				if comps[i].Errno != want {
					t.Errorf("batch op %d: %v, want %v", i, comps[i].Errno, want)
				}
			}
			if !bytes.Equal(comps[5].Data, keep) {
				t.Errorf("batched read after the refused ops: %q", comps[5].Data)
			}
			intact("batched")
		})
	}
}
