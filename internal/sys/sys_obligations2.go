package sys

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerMoreObligations is the second wave of syscall-layer VCs:
// descriptor isolation between processes, kernel determinism (two
// replicas fed the same op log stay bit-equal — the NR requirement),
// the write/seek spec relations on the full path, process lifecycle
// accounting, and errno totality.
func registerMoreObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "sys", Name: "fd-isolation-between-processes", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				k := newTestKernel()
				spawn := func() proc.PID {
					return proc.PID(k.DispatchWrite(WriteOp{Num: NumSpawn, PID: proc.InitPID, Name: "p"}).Val)
				}
				p1, p2 := spawn(), spawn()
				// p1 opens a file; p2 must not be able to use p1's fd
				// value (each process has its own table, so the same
				// numeric fd either fails or refers to p2's own files).
				r1 := k.DispatchWrite(WriteOp{Num: NumOpen, PID: p1, Path: "/secret", Flags: fs.OCreate | fs.ORdWr})
				if r1.Errno != EOK {
					return fmt.Errorf("open: %v", r1.Errno)
				}
				k.DispatchWrite(WriteOp{Num: NumWrite, PID: p1, FD: fs.FD(r1.Val), Data: []byte("p1 only")})
				leak := k.DispatchWrite(WriteOp{Num: NumRead, PID: p2, FD: fs.FD(r1.Val), Len: 16})
				if leak.Errno == EOK && len(leak.Data) > 0 {
					return fmt.Errorf("process %d read through process %d's descriptor", p2, p1)
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "kernel-replica-determinism", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				// The NR requirement stated on Kernel's doc comment,
				// checked directly: identical op logs yield identical
				// responses and states on two independent replicas.
				kA := newTestKernel()
				kB := newTestKernel()
				var pids []proc.PID
				pids = append(pids, proc.InitPID)
				for i := 0; i < 800; i++ {
					op := randomKernelOp(r, pids)
					ra := kA.DispatchWrite(op)
					rb := kB.DispatchWrite(op)
					if ra.Errno != rb.Errno || ra.Val != rb.Val {
						return fmt.Errorf("op %d (%d) diverged: (%v,%d) vs (%v,%d)",
							i, op.Num, ra.Errno, ra.Val, rb.Errno, rb.Val)
					}
					if op.Num == NumSpawn && ra.Errno == EOK {
						pids = append(pids, proc.PID(ra.Val))
					}
				}
				if !fs.Equal(kA.FS(), kB.FS()) {
					return fmt.Errorf("filesystems diverged after identical logs")
				}
				if kA.Procs().Len() != kB.Procs().Len() {
					return fmt.Errorf("process tables diverged")
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "write-seek-specs-full-path", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				k := newTestKernel()
				s := NewSys(proc.InitPID, &directHandler{k: k})
				s.EnableContract(k)
				fd, e := s.Open("/wss", fs.OCreate|fs.ORdWr)
				if e != EOK {
					return fmt.Errorf("open: %v", e)
				}
				for i := 0; i < 300; i++ {
					switch r.Intn(3) {
					case 0:
						data := make([]byte, r.Intn(200))
						r.Read(data)
						if _, e := s.Write(fd, data); e != EOK {
							return fmt.Errorf("write: %v", e)
						}
					case 1:
						if _, e := s.Seek(fd, int64(r.Intn(400))-100, r.Intn(3)); e != EOK && e != EINVAL {
							return fmt.Errorf("seek: %v", e)
						}
					default:
						if _, e := s.Read(fd, make([]byte, r.Intn(200))); e != EOK {
							return fmt.Errorf("read: %v", e)
						}
					}
				}
				return s.ContractErr()
			}},
		verifier.Obligation{Module: "sys", Name: "process-lifecycle-accounting", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				k := newTestKernel()
				live := map[proc.PID]bool{}
				for i := 0; i < 400; i++ {
					switch r.Intn(3) {
					case 0:
						resp := k.DispatchWrite(WriteOp{Num: NumSpawn, PID: proc.InitPID, Name: "x"})
						if resp.Errno == EOK {
							live[proc.PID(resp.Val)] = true
						}
					case 1:
						for pid := range live {
							if k.DispatchWrite(WriteOp{Num: NumExit, PID: pid}).Errno != EOK {
								return fmt.Errorf("exit(%d) failed", pid)
							}
							delete(live, pid)
							break
						}
					default:
						resp := k.DispatchWrite(WriteOp{Num: NumWaitPID, PID: proc.InitPID})
						if resp.Errno != EOK && resp.Errno != EAGAIN && resp.Errno != ECHILD {
							return fmt.Errorf("wait: %v", resp.Errno)
						}
					}
					if err := k.Procs().CheckInvariant(); err != nil {
						return fmt.Errorf("iter %d: %w", i, err)
					}
				}
				// Every live process has an address space and fd table.
				for pid := range live {
					if _, ok := k.Root(pid); !ok {
						return fmt.Errorf("live pid %d has no address space", pid)
					}
					if _, ok := k.ViewFDs(pid); !ok {
						return fmt.Errorf("live pid %d has no fd table", pid)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "errno-mapping-total", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// Every subsystem error folds to a non-OK errno, and nil
				// folds to EOK.
				if ErrnoFromError(nil) != EOK {
					return fmt.Errorf("nil -> %v", ErrnoFromError(nil))
				}
				errs := []error{
					fs.ErrNotExist, fs.ErrExist, fs.ErrNotDir, fs.ErrIsDir,
					fs.ErrNotEmpty, fs.ErrBadFD, fs.ErrNotLocked, fs.ErrPermission,
					fs.ErrInval, fs.ErrNameTooLong,
					proc.ErrNoProcess, proc.ErrNoChildren, proc.ErrWouldBlock,
					proc.ErrZombie, proc.ErrInit,
					fmt.Errorf("wrapped: %w", fs.ErrNotExist),
					fmt.Errorf("opaque error"),
				}
				for _, err := range errs {
					if ErrnoFromError(err) == EOK {
						return fmt.Errorf("error %v folded to EOK", err)
					}
				}
				if ErrnoFromError(fmt.Errorf("x: %w", fs.ErrNotExist)) != ENOENT {
					return fmt.Errorf("wrapped ErrNotExist not ENOENT")
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "mmap-regions-never-overlap", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				k, dataFrames := newTestKernelFrames()
				pid := proc.PID(k.DispatchWrite(WriteOp{Num: NumSpawn, PID: proc.InitPID, Name: "m"}).Val)
				type region struct {
					base mmu.VAddr
					size uint64
				}
				var regions []region
				for i := 0; i < 200; i++ {
					if r.Intn(2) == 0 || len(regions) == 0 {
						pages := uint64(1 + r.Intn(8))
						resp := k.DispatchWrite(WriteOp{Num: NumMMap, PID: pid,
							Size: pages * mmu.L1PageSize, Frames: dataFrames.take(int(pages))})
						if resp.Errno != EOK {
							return fmt.Errorf("mmap: %v", resp.Errno)
						}
						regions = append(regions, region{mmu.VAddr(resp.Val), pages * mmu.L1PageSize})
					} else {
						j := r.Intn(len(regions))
						resp := k.DispatchWrite(WriteOp{Num: NumMUnmap, PID: pid, VA: regions[j].base})
						if resp.Errno != EOK {
							return fmt.Errorf("munmap: %v", resp.Errno)
						}
						regions = append(regions[:j], regions[j+1:]...)
					}
					for a := 0; a < len(regions); a++ {
						for b := a + 1; b < len(regions); b++ {
							ra, rb := regions[a], regions[b]
							if uint64(ra.base) < uint64(rb.base)+rb.size &&
								uint64(rb.base) < uint64(ra.base)+ra.size {
								return fmt.Errorf("regions overlap: %#x+%#x and %#x+%#x",
									uint64(ra.base), ra.size, uint64(rb.base), rb.size)
							}
						}
					}
				}
				return nil
			}},
	)
}

// randomKernelOp builds a random deterministic kernel op over known
// pids (no local ops, no frame-carrying ops).
func randomKernelOp(r *rand.Rand, pids []proc.PID) WriteOp {
	pid := pids[r.Intn(len(pids))]
	paths := []string{"/a", "/b", "/d/x", "/d"}
	switch r.Intn(8) {
	case 0:
		return WriteOp{Num: NumOpen, PID: pid, Path: paths[r.Intn(len(paths))], Flags: fs.OCreate | fs.ORdWr}
	case 1:
		data := make([]byte, r.Intn(64))
		r.Read(data)
		return WriteOp{Num: NumWrite, PID: pid, FD: fs.FD(3 + r.Intn(4)), Data: data}
	case 2:
		return WriteOp{Num: NumRead, PID: pid, FD: fs.FD(3 + r.Intn(4)), Len: uint64(r.Intn(64))}
	case 3:
		return WriteOp{Num: NumSeek, PID: pid, FD: fs.FD(3 + r.Intn(4)), Off: int64(r.Intn(100)), Whence: r.Intn(3)}
	case 4:
		return WriteOp{Num: NumMkdir, PID: pid, Path: paths[r.Intn(len(paths))]}
	case 5:
		return WriteOp{Num: NumUnlink, PID: pid, Path: paths[r.Intn(len(paths))]}
	case 6:
		return WriteOp{Num: NumSpawn, PID: pid, Name: "child"}
	default:
		return WriteOp{Num: NumClose, PID: pid, FD: fs.FD(3 + r.Intn(4))}
	}
}
