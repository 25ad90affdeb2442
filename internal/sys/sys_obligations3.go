package sys

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerEvenMoreObligations: read-only syscalls are observationally
// pure, stat agrees with the write history, and readdir reflects
// exactly the created names.
func registerEvenMoreObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "sys", Name: "failed-transition-changes-nothing", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// Honest failures pass: the witness shows the descriptor
				// exactly as it was.
				k := newTestKernel()
				s := NewSys(proc.InitPID, &directHandler{k: k})
				s.EnableContract(k)
				fd, e := s.Open("/f", fs.OCreate|fs.ORdWr)
				if e != EOK {
					return fmt.Errorf("open: %v", e)
				}
				if _, e := s.Write(fd, randBytes(r, 1+r.Intn(200))); e != EOK {
					return fmt.Errorf("write: %v", e)
				}
				ro, e := s.Open("/f", fs.ORdOnly)
				if e != EOK {
					return fmt.Errorf("open read-only: %v", e)
				}
				wo, e := s.Open("/f", fs.OWrOnly)
				if e != EOK {
					return fmt.Errorf("open write-only: %v", e)
				}
				if _, e := s.Seek(fd, -1-int64(r.Intn(100)), fs.SeekSet); e != EINVAL {
					return fmt.Errorf("negative seek: %v, want EINVAL", e)
				}
				if _, e := s.Seek(fd, 0, 3+r.Intn(5)); e != EINVAL {
					return fmt.Errorf("bad whence: %v, want EINVAL", e)
				}
				if _, e := s.Write(ro, []byte("x")); e != EPERM {
					return fmt.Errorf("write on read-only fd: %v, want EPERM", e)
				}
				if _, e := s.Read(wo, make([]byte, 4)); e != EPERM {
					return fmt.Errorf("read on write-only fd: %v, want EPERM", e)
				}
				if _, e := s.Read(fd+100, make([]byte, 4)); e != EBADF {
					return fmt.Errorf("read on closed fd: %v, want EBADF", e)
				}
				if err := s.ContractErr(); err != nil {
					return fmt.Errorf("honest failure flagged: %w", err)
				}

				// A kernel that moves the offset, or edits contents, and then
				// reports failure is caught on the per-call path.
				for _, lie := range []struct {
					num  uint64
					call func(s *Sys, fd fs.FD) Errno
				}{
					{NumSeek, func(s *Sys, fd fs.FD) Errno { _, e := s.Seek(fd, 1, fs.SeekSet); return e }},
					{NumRead, func(s *Sys, fd fs.FD) Errno { _, e := s.Read(fd, make([]byte, 2)); return e }},
					{NumWrite, func(s *Sys, fd fs.FD) Errno { _, e := s.Write(fd, []byte("zz")); return e }},
				} {
					h := &lyingHandler{directHandler: directHandler{k: newTestKernel()}, num: lie.num, errno: EIO}
					s := NewSys(proc.InitPID, h)
					s.EnableContract(h.k)
					fd, e := s.Open("/g", fs.OCreate|fs.ORdWr)
					if e != EOK {
						return fmt.Errorf("open: %v", e)
					}
					// Seed contents and leave the offset at 0 without using
					// the op under test.
					if r := h.k.DispatchWrite(WriteOp{Num: NumWrite, PID: proc.InitPID, FD: fd, Data: []byte("abcdef")}); r.Errno != EOK {
						return fmt.Errorf("seed write: %v", r.Errno)
					}
					if r := h.k.DispatchWrite(WriteOp{Num: NumSeek, PID: proc.InitPID, FD: fd, Whence: fs.SeekSet}); r.Errno != EOK {
						return fmt.Errorf("seed seek: %v", r.Errno)
					}
					if err := s.ContractErr(); err != nil {
						return fmt.Errorf("%s: violation before the lie: %w", OpName(lie.num), err)
					}
					if e := lie.call(s, fd); e != EIO {
						return fmt.Errorf("%s: got %v, want the forged EIO", OpName(lie.num), e)
					}
					if s.ContractErr() == nil {
						return fmt.Errorf("%s mutated the descriptor, reported failure, and passed the contract", OpName(lie.num))
					}
				}

				// So is a handler that cannot produce a witness at all.
				s = NewSys(proc.InitPID, &gatedBatchHandler{inner: &directHandler{k: k}})
				s.EnableContract(k)
				if _, e := s.Seek(fd, 0, fs.SeekSet); e != EOK {
					return fmt.Errorf("seek: %v", e)
				}
				if s.ContractErr() == nil {
					return fmt.Errorf("a checked call without a witness passed the contract")
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "read-ops-are-pure", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				k := newTestKernel()
				s := NewSys(proc.InitPID, &directHandler{k: k})
				if e := s.Mkdir("/d"); e != EOK {
					return fmt.Errorf("mkdir: %v", e)
				}
				fd, e := s.Open("/d/f", fs.OCreate|fs.ORdWr)
				if e != EOK {
					return fmt.Errorf("open: %v", e)
				}
				if _, e := s.Write(fd, []byte("stable")); e != EOK {
					return fmt.Errorf("write: %v", e)
				}
				pre, _ := k.ViewFDs(proc.InitPID)
				for i := 0; i < 200; i++ {
					switch r.Intn(3) {
					case 0:
						_, _ = s.Stat("/d/f")
					case 1:
						_, _ = s.ReadDir("/d")
					default:
						_, _ = s.GetPID()
					}
				}
				post, _ := k.ViewFDs(proc.InitPID)
				if len(pre.Files) != len(post.Files) {
					return fmt.Errorf("read ops changed descriptor table")
				}
				for fdk, f := range pre.Files {
					g2 := post.Files[fdk]
					if f.Offset != g2.Offset || !f.Contents.Equal(g2.Contents) {
						return fmt.Errorf("read ops mutated fd %d state", fdk)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "stat-tracks-write-history", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				k := newTestKernel()
				s := NewSys(proc.InitPID, &directHandler{k: k})
				fd, e := s.Open("/grow", fs.OCreate|fs.ORdWr)
				if e != EOK {
					return fmt.Errorf("open: %v", e)
				}
				var size, offset uint64
				for i := 0; i < 300; i++ {
					switch r.Intn(3) {
					case 0:
						n := uint64(r.Intn(100))
						data := make([]byte, n)
						if _, e := s.Write(fd, data); e != EOK {
							return fmt.Errorf("write: %v", e)
						}
						offset += n
						if n > 0 && offset > size { // a zero-length write past EOF does not grow
							size = offset
						}
					case 1:
						target := uint64(r.Intn(300))
						if _, e := s.Seek(fd, int64(target), fs.SeekSet); e != EOK {
							return fmt.Errorf("seek: %v", e)
						}
						offset = target
					default:
						st, e := s.Stat("/grow")
						if e != EOK {
							return fmt.Errorf("stat: %v", e)
						}
						if st.Size != size {
							return fmt.Errorf("iter %d: stat size %d, model %d", i, st.Size, size)
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "readdir-reflects-creates", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				k := newTestKernel()
				s := NewSys(proc.InitPID, &directHandler{k: k})
				if e := s.Mkdir("/dir"); e != EOK {
					return fmt.Errorf("mkdir: %v", e)
				}
				want := map[string]bool{}
				for i := 0; i < 100; i++ {
					name := fmt.Sprintf("e%02d", r.Intn(40))
					path := "/dir/" + name
					if r.Intn(2) == 0 {
						if _, e := s.Open(path, fs.OCreate); e == EOK && !want[name] {
							want[name] = true
						}
					} else if want[name] {
						if e := s.Unlink(path); e != EOK {
							return fmt.Errorf("unlink: %v", e)
						}
						delete(want, name)
					}
					ents, e := s.ReadDir("/dir")
					if e != EOK {
						return fmt.Errorf("readdir: %v", e)
					}
					if len(ents) != len(want) {
						return fmt.Errorf("iter %d: %d entries, model %d", i, len(ents), len(want))
					}
					for _, ent := range ents {
						if !want[ent.Name] {
							return fmt.Errorf("phantom entry %q", ent.Name)
						}
					}
				}
				return nil
			}},
	)
}
