package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// TestCrossHandleContractSoundness is the interference the contract
// check used to assume away: several Sys handles for one PID, two of
// them sharing a descriptor and a third writing the same inode through
// its own, all contract-checked, hammering seek/read/write from separate
// goroutines — beside a fourth submitting seek/write/seek/read batches on
// the shared descriptor and a fifth preading it inside one page. With
// pre and post taken as two views around the crossing, another handle's
// seek or write lands between them and the spec relation is evaluated on
// states that were never adjacent (a spurious violation within a few
// hundred ops, a batch or a pread's included). With the witness captured
// at the transition — a call's, or a batch run's, in the apply; a pread's
// in its read — there is nothing between pre and post, on either
// kernel, so every handle's ContractErr stays nil. A pread is one
// replica-local read on the owner shard, checked against the contents
// that read saw; TestPreadIsOneFileState covers preads spanning pages.
// Run under -race at GOMAXPROCS=2.
func TestCrossHandleContractSoundness(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	for _, cfg := range []Config{
		{Cores: 2, Replicas: 2},
		{Cores: 2, Shards: 2, Replicas: 2},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("shards=%d", cfg.Shards), func(t *testing.T) {
			s, err := Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var hs [5]*sys.Sys
			for i := range hs {
				if hs[i], err = s.Init(); err != nil {
					t.Fatal(err)
				}
			}
			shared, e := hs[0].Open("/shared", sys.OCreate|sys.ORdWr)
			if e != sys.EOK {
				t.Fatal(e)
			}
			if _, e := hs[0].Write(shared, make([]byte, 4096)); e != sys.EOK {
				t.Fatal(e)
			}
			own, e := hs[2].Open("/shared", sys.ORdWr)
			if e != sys.EOK {
				t.Fatal(e)
			}

			const ops = 400
			var wg sync.WaitGroup
			for i, h := range hs {
				fd := shared // every handle but 2 uses the one descriptor
				if i == 2 {
					fd = own
				}
				wg.Add(1)
				go func(i int, h *sys.Sys, fd fs.FD) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(i + 1)))
					buf := make([]byte, 256)
					for n := 0; n < ops; n++ {
						var e sys.Errno
						switch {
						case i == 3:
							e = crossHandleBatch(h, fd, r)
						case i == 4:
							off := uint64(r.Intn(4096))
							_, e = h.Pread(fd, buf[:1+r.Intn(int(min(256, 4096-off)))], off)
						default:
							e = crossHandleCall(h, fd, r, buf)
						}
						if e != sys.EOK {
							t.Errorf("handle %d op %d: %v", i, n, e)
							return
						}
					}
				}(i, h, fd)
			}
			wg.Wait()
			for i, h := range hs {
				if err := h.ContractErr(); err != nil {
					t.Errorf("handle %d: %v", i, err)
				}
			}
			if err := s.CheckReplicaAgreement(); err != nil {
				t.Error(err)
			}
			if err := s.CheckKernelInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// crossHandleCall is one random seek, read or write.
func crossHandleCall(h *sys.Sys, fd fs.FD, r *rand.Rand, buf []byte) sys.Errno {
	var e sys.Errno
	switch r.Intn(6) {
	case 0:
		_, e = h.Seek(fd, int64(r.Intn(4096)), fs.SeekSet)
	case 1:
		// Any whence, sometimes negative: EINVAL is an honest failure and
		// is itself checked.
		_, e = h.Seek(fd, int64(r.Intn(300))-100, r.Intn(3))
		if e == sys.EINVAL {
			e = sys.EOK
		}
	case 2, 3:
		_, e = h.Read(fd, buf[:1+r.Intn(len(buf))])
	default:
		r.Read(buf)
		_, e = h.Write(fd, buf[:r.Intn(len(buf))])
	}
	return e
}

// crossHandleBatch submits one seek + 8 writes + seek + read batch: one
// descriptor run.
func crossHandleBatch(h *sys.Sys, fd fs.FD, r *rand.Rand) sys.Errno {
	ops := []sys.Op{sys.OpSeek(fd, int64(r.Intn(4096)), fs.SeekSet)}
	for w := 0; w < 8; w++ {
		data := make([]byte, r.Intn(64))
		r.Read(data)
		ops = append(ops, sys.OpWrite(fd, data))
	}
	ops = append(ops, sys.OpSeek(fd, int64(r.Intn(4096)), fs.SeekSet), sys.OpRead(fd, uint64(1+r.Intn(256))))
	comps, e := h.SubmitWait(ops)
	if e != sys.EOK {
		return e
	}
	for _, c := range comps {
		if c.Errno != sys.EOK {
			return c.Errno
		}
	}
	return sys.EOK
}

// tamperHandler is a kernel handler with a fault between the kernel and
// the client: tamper may rewrite a response after the replicated kernel
// produced it (and its witness). What the contract checker must then
// catch is a divergence between what the kernel did and what the
// client was told — so the relation has to be evaluated on the delivered
// response, in both kernel modes.
type tamperHandler struct {
	*handler
	tamper func(num uint64, r *sys.Resp) bool
	// into tampers with the destination crossing: the caller's buffer
	// after the kernel wrote it, and the count in the reply frame.
	into func(dst []byte, ret *marshal.RetFrame)
	// batch tampers with a batch crossing's completion queue.
	batch func(comps []sys.Completion)
}

func (t *tamperHandler) SyscallInto(frame marshal.SyscallFrame, payload []byte, dst []byte) marshal.RetFrame {
	ret := t.handler.SyscallInto(frame, payload, dst)
	if t.into != nil && ret.OK() {
		t.into(dst, &ret)
	}
	return ret
}

func (t *tamperHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	ret, out := t.handler.Syscall(frame, payload)
	if frame.Num == sys.NumBatch {
		if comps, errno, err := sys.DecodeBatchResp(ret, out); err == nil && t.batch != nil {
			t.batch(comps)
			return sys.EncodeBatchResp(comps, errno)
		}
		return ret, out
	}
	if resp, err := sys.DecodeResp(ret, out); err == nil && t.tamper(frame.Num, &resp) {
		return sys.EncodeResp(resp)
	}
	return ret, out
}

// TestWitnessedContractCatchesBrokenKernel is
// sys:contract-catches-broken-kernel and
// sys:failed-transition-changes-nothing on the composed kernel, monolith
// and sharded: the witness is captured in a combiner's apply (composed
// across the fd lock when sharded), the fault sits after it, between the
// kernel and the client. (A test rather than a VC: it boots a system per
// fault, forty times the allocation of the average VC.)
func TestWitnessedContractCatchesBrokenKernel(t *testing.T) {
	untouched := func(uint64, *sys.Resp) bool { return false }
	pread := func(s *sys.Sys, fd fs.FD) sys.Errno { _, e := s.Pread(fd, make([]byte, 6), 2); return e }
	faults := []struct {
		name   string
		tamper func(num uint64, r *sys.Resp) bool
		call   func(s *sys.Sys, fd fs.FD) sys.Errno
		into   func(dst []byte, ret *marshal.RetFrame)
	}{
		{name: "wrong bytes in the pread destination", tamper: untouched, call: pread,
			into: func(dst []byte, ret *marshal.RetFrame) { dst[0] ^= 0xff }},
		{name: "short count from the pread destination crossing", tamper: untouched, call: pread,
			into: func(dst []byte, ret *marshal.RetFrame) { ret.Value-- }},
		{"corrupted read data",
			func(num uint64, r *sys.Resp) bool {
				if num != sys.NumRead || r.Errno != sys.EOK || len(r.Data) == 0 {
					return false
				}
				r.Data[0] ^= 0xff
				return true
			},
			func(s *sys.Sys, fd fs.FD) sys.Errno { _, e := s.Read(fd, make([]byte, 9)); return e }, nil},
		{"short write count",
			func(num uint64, r *sys.Resp) bool {
				if num != sys.NumWrite || r.Errno != sys.EOK || r.Val != 4 {
					return false
				}
				r.Val--
				return true
			},
			func(s *sys.Sys, fd fs.FD) sys.Errno { _, e := s.Write(fd, []byte("more")); return e }, nil},
		{"seek applied but reported failed",
			func(num uint64, r *sys.Resp) bool {
				if num != sys.NumSeek || r.Errno != sys.EOK || r.Val != 5 {
					return false
				}
				*r = sys.Resp{Errno: sys.EIO}
				return true
			},
			func(s *sys.Sys, fd fs.FD) sys.Errno {
				if _, e := s.Seek(fd, 5, fs.SeekSet); e != sys.EIO {
					return sys.EINVAL
				}
				return sys.EOK
			}, nil},
		{"write applied but reported failed",
			func(num uint64, r *sys.Resp) bool {
				if num != sys.NumWrite || r.Errno != sys.EOK || r.Val != 3 {
					return false
				}
				*r = sys.Resp{Errno: sys.EIO}
				return true
			},
			func(s *sys.Sys, fd fs.FD) sys.Errno {
				if _, e := s.Write(fd, []byte("xyz")); e != sys.EIO {
					return sys.EINVAL
				}
				return sys.EOK
			}, nil},
	}
	for _, shards := range []int{0, 2} {
		for _, f := range faults {
			sh, fd := faultedHandle(t, shards, &tamperHandler{tamper: f.tamper, into: f.into})
			if e := f.call(sh, fd); e != sys.EOK {
				t.Errorf("shards=%d %s: the faulted call returned %v", shards, f.name, e)
			}
			if err := sh.ContractErr(); err == nil {
				t.Errorf("shards=%d: contract checker missed %s", shards, f.name)
			} else if f.into != nil && !strings.Contains(err.Error(), "pread") {
				t.Errorf("shards=%d %s: the violation does not name pread: %v", shards, f.name, err)
			}
		}
	}

	// Inside a batch: one descriptor run of five entries — a multi-entry
	// run on either kernel — with one completion tampered after the kernel
	// produced it. The fault is caught, and its neighbours come back as the
	// kernel answered them.
	run := func(fd fs.FD) []sys.Op {
		return []sys.Op{sys.OpSeek(fd, 0, fs.SeekSet), sys.OpRead(fd, 3), sys.OpRead(fd, 3),
			sys.OpWrite(fd, []byte("more")), sys.OpSeek(fd, 5, fs.SeekSet)}
	}
	want := []sys.Completion{{Op: sys.NumSeek}, {Op: sys.NumRead, Val: 3, Data: []byte("sen")},
		{Op: sys.NumRead, Val: 3, Data: []byte("sit")}, {Op: sys.NumWrite, Val: 4}, {Op: sys.NumSeek, Val: 5}}
	for _, shards := range []int{0, 2} {
		for _, f := range []struct {
			name   string
			at     int
			tamper func(c *sys.Completion)
		}{
			{"a flipped byte in a batched read's data", 2, func(c *sys.Completion) { c.Data[0] ^= 0xff }},
			{"a batched write's count off by one", 3, func(c *sys.Completion) { c.Val-- }},
			{"a batched seek's offset off by one", 4, func(c *sys.Completion) { c.Val++ }},
		} {
			sh, fd := faultedHandle(t, shards, &tamperHandler{tamper: untouched, batch: func(comps []sys.Completion) {
				f.tamper(&comps[f.at])
			}})
			comps, e := sh.SubmitWait(run(fd))
			if e != sys.EOK || len(comps) != len(want) {
				t.Fatalf("shards=%d %s: submit: %v, %d completions", shards, f.name, e, len(comps))
			}
			if sh.ContractErr() == nil {
				t.Errorf("shards=%d: contract checker missed %s", shards, f.name)
			}
			for k, c := range comps {
				if k != f.at && (c.Op != want[k].Op || c.Errno != sys.EOK || c.Val != want[k].Val || string(c.Data) != string(want[k].Data)) {
					t.Errorf("shards=%d %s: completion %d disturbed by its neighbour's fault: %+v", shards, f.name, k, c)
				}
			}
		}
	}
}

// faultedHandle boots a system and returns a contract-checked init handle
// whose crossings go through th, with "sensitive" written to a fresh
// file and the descriptor's offset back at 0.
func faultedHandle(t *testing.T, shards int, th *tamperHandler) (*sys.Sys, fs.FD) {
	t.Helper()
	s, err := Boot(Config{Cores: 2, Shards: shards, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if th.handler, err = s.newHandler(s.pickCore()); err != nil {
		t.Fatal(err)
	}
	sh := sys.NewSys(proc.InitPID, th)
	sh.EnableContract()
	fd, e := sh.Open("/x", sys.OCreate|sys.ORdWr)
	if e != sys.EOK {
		t.Fatalf("shards=%d: open: %v", shards, e)
	}
	if _, e := sh.Write(fd, []byte("sensitive")); e != sys.EOK {
		t.Fatalf("shards=%d: write: %v", shards, e)
	}
	if _, e := sh.Seek(fd, 0, fs.SeekSet); e != sys.EOK {
		t.Fatalf("shards=%d: seek: %v", shards, e)
	}
	if err := sh.ContractErr(); err != nil {
		t.Fatalf("shards=%d: violation before the fault: %v", shards, err)
	}
	return sh, fd
}
