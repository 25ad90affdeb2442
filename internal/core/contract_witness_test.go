package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// TestCrossHandleContractSoundness is the interference the per-call
// contract check used to assume away: several Sys handles for one PID,
// two of them sharing a descriptor and a third writing the same inode
// through its own, all contract-checked, hammering seek/read/write from
// separate goroutines. With pre and post taken as two views around the
// crossing, another handle's seek or write lands between them and the
// spec relation is evaluated on states that were never adjacent (a
// spurious violation within a few hundred ops). With the witness
// captured in the apply there is nothing between pre and post, on
// either kernel, so every handle's ContractErr stays nil. Run under
// -race at GOMAXPROCS=2.
func TestCrossHandleContractSoundness(t *testing.T) {
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
			var hs [3]*sys.Sys
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
				fd := shared // handles 0 and 1 share one descriptor
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
						switch r.Intn(6) {
						case 0:
							_, e = h.Seek(fd, int64(r.Intn(4096)), fs.SeekSet)
						case 1:
							// Any whence, sometimes negative: EINVAL is an
							// honest failure and is itself checked.
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
			s, err := Boot(Config{Cores: 2, Shards: shards, MemBytes: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.newHandler(s.pickCore())
			if err != nil {
				t.Fatal(err)
			}
			sh := sys.NewSys(proc.InitPID, &tamperHandler{handler: h, tamper: f.tamper, into: f.into})
			sh.EnableContract(&replicaViewer{s: s, core: h.core})
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
}
