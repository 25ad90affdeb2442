package ulib

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// Env provides ulib's obligations with processes and threads on a live
// system; internal/core implements it (ulib cannot import core).
type Env interface {
	// NewProcess spawns a fresh process and returns its Sys handle.
	NewProcess() (*sys.Sys, error)
	// NewThread returns an additional syscall handle for the same
	// process — a second thread sharing the address space.
	NewThread(of *sys.Sys) (*sys.Sys, error)
}

// RegisterObligations registers the standard-library verification
// conditions: buffered stdio must be observationally equivalent to
// direct syscalls, malloc must not alias live blocks, the C-string
// routines must agree with Go-native strings, and the process-memory
// futex mutex must provide mutual exclusion across threads.
func RegisterObligations(g *verifier.Registry, env Env) {
	registerMoreObligations(g, env)
	registerRuntimeObligations(g, env)
	g.Register(
		verifier.Obligation{Module: "ulib", Name: "stdio-equals-direct-syscalls", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				rt := New(s)
				// Random interleaving of buffered writes/reads/seeks on
				// one file, mirrored by direct syscalls on another; the
				// final contents must be identical.
				bf, err := rt.Open("/ulib-buffered", fs.OCreate|fs.ORdWr)
				if err != nil {
					return err
				}
				dfd, e := s.Open("/ulib-direct", fs.OCreate|fs.ORdWr)
				if e != sys.EOK {
					return errnoErr("open direct", e)
				}
				for i := 0; i < 60; i++ {
					switch r.Intn(3) {
					case 0:
						data := make([]byte, r.Intn(200))
						r.Read(data)
						if _, err := bf.Write(data); err != nil {
							return err
						}
						if _, e := s.Write(dfd, data); e != sys.EOK {
							return errnoErr("direct write", e)
						}
					case 1:
						buf1 := make([]byte, r.Intn(100))
						buf2 := make([]byte, len(buf1))
						n1, err := bf.Read(buf1)
						if err != nil {
							return err
						}
						n2, e := s.Read(dfd, buf2)
						if e != sys.EOK {
							return errnoErr("direct read", e)
						}
						if n1 != int(n2) || !bytes.Equal(buf1[:n1], buf2[:n2]) {
							return fmt.Errorf("buffered read diverged at op %d", i)
						}
					default:
						off := int64(r.Intn(100))
						p1, err := bf.Seek(off, fs.SeekSet)
						if err != nil {
							return err
						}
						p2, e := s.Seek(dfd, off, fs.SeekSet)
						if e != sys.EOK {
							return errnoErr("direct seek", e)
						}
						if p1 != int64(p2) {
							return fmt.Errorf("seek diverged: %d vs %d", p1, p2)
						}
					}
				}
				if err := bf.Close(); err != nil {
					return err
				}
				st1, e := s.Stat("/ulib-buffered")
				if e != sys.EOK {
					return errnoErr("stat", e)
				}
				st2, _ := s.Stat("/ulib-direct")
				if st1.Size != st2.Size {
					return fmt.Errorf("file sizes diverged: %d vs %d", st1.Size, st2.Size)
				}
				// Byte-for-byte comparison.
				f1, _ := s.Open("/ulib-buffered", fs.ORdOnly)
				f2, _ := s.Open("/ulib-direct", fs.ORdOnly)
				b1 := make([]byte, st1.Size)
				b2 := make([]byte, st2.Size)
				s.Read(f1, b1)
				s.Read(f2, b2)
				if !bytes.Equal(b1, b2) {
					return fmt.Errorf("file contents diverged")
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "malloc-no-aliasing", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				rt := New(s)
				type rec struct {
					va   mmu.VAddr
					size uint64
					pat  byte
				}
				// Leave the first slab 4 KiB short of full, so the live set
				// below outgrows it and the traffic crosses into a second.
				if _, err := rt.Malloc(slabSize - 4<<10); err != nil {
					return err
				}
				var live []rec
				for i := 0; i < 150; i++ {
					if r.Intn(3) > 0 || len(live) == 0 {
						size := uint64(1 + r.Intn(500))
						va, err := rt.Malloc(size)
						if err != nil {
							return err
						}
						pat := byte(r.Intn(256))
						if err := rt.Memset(va, pat, size); err != nil {
							return err
						}
						live = append(live, rec{va, size, pat})
					} else {
						j := r.Intn(len(live))
						// Verify the pattern survived every other alloc.
						buf := make([]byte, live[j].size)
						if e := s.MemRead(live[j].va, buf); e != sys.EOK {
							return errnoErr("memread", e)
						}
						for _, b := range buf {
							if b != live[j].pat {
								return fmt.Errorf("block at %#x corrupted (aliasing)", uint64(live[j].va))
							}
						}
						if err := rt.Free(live[j].va); err != nil {
							return err
						}
						live = append(live[:j], live[j+1:]...)
					}
				}
				// Double free rejected.
				va, err := rt.Malloc(16)
				if err != nil {
					return err
				}
				if err := rt.Free(va); err != nil {
					return err
				}
				if err := rt.Free(va); err == nil {
					return fmt.Errorf("double free accepted")
				}
				_, err = rt.CheckHeap()
				return err
			}},
		verifier.Obligation{Module: "ulib", Name: "cstring-routines-agree-with-go", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				rt := New(s)
				for i := 0; i < 40; i++ {
					n := r.Intn(300)
					raw := make([]byte, n)
					for j := range raw {
						raw[j] = byte(1 + r.Intn(255)) // no embedded NUL
					}
					want := string(raw)
					va, err := rt.Malloc(uint64(n + 1))
					if err != nil {
						return err
					}
					if err := rt.WriteCString(va, want); err != nil {
						return err
					}
					ln, err := rt.Strlen(va)
					if err != nil {
						return err
					}
					if ln != uint64(len(want)) {
						return fmt.Errorf("strlen = %d, want %d", ln, len(want))
					}
					got, err := rt.ReadCString(va)
					if err != nil {
						return err
					}
					if got != want {
						return fmt.Errorf("cstring round trip mismatch")
					}
					// Strcmp self-compare and against a mutated copy.
					vb, err := rt.Malloc(uint64(n + 1))
					if err != nil {
						return err
					}
					if err := rt.WriteCString(vb, want); err != nil {
						return err
					}
					if c, err := rt.Strcmp(va, vb); err != nil || c != 0 {
						return fmt.Errorf("strcmp equal strings = %d, %v", c, err)
					}
					if n > 0 {
						mut := []byte(want)
						mut[r.Intn(n)] ^= 0x01
						if err := rt.WriteCString(vb, string(mut)); err != nil {
							return err
						}
						if c, err := rt.Strcmp(va, vb); err != nil || c == 0 {
							return fmt.Errorf("strcmp differing strings = %d, %v", c, err)
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "memcpy-semantics", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				rt := New(s)
				for i := 0; i < 30; i++ {
					n := uint64(1 + r.Intn(3000))
					src, err := rt.Malloc(n)
					if err != nil {
						return err
					}
					dst, err := rt.Malloc(n)
					if err != nil {
						return err
					}
					data := make([]byte, n)
					r.Read(data)
					if e := s.MemWrite(src, data); e != sys.EOK {
						return errnoErr("seed", e)
					}
					if err := rt.Memcpy(dst, src, n); err != nil {
						return err
					}
					got := make([]byte, n)
					if e := s.MemRead(dst, got); e != sys.EOK {
						return errnoErr("check", e)
					}
					if !bytes.Equal(got, data) {
						return fmt.Errorf("memcpy mismatch at %d bytes", n)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "pthread-mutex-mutual-exclusion", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				rt := New(s)
				m, err := rt.NewMutex()
				if err != nil {
					return err
				}
				// A shared counter word in process memory, incremented
				// non-atomically under the mutex by 4 threads. Every thread
				// must finish (progress) and no update may be lost.
				counter, err := rt.newWord()
				if err != nil {
					return err
				}
				const threads, iters = 4, 60
				err = onThreads(env, s, threads, func(th *sys.Sys) error {
					tm, ctr := &Mutex{m.on(th)}, counter.on(th)
					for i := 0; i < iters; i++ {
						if err := tm.Lock(); err != nil {
							return err
						}
						v, err := ctr.load()
						if err != nil {
							return err
						}
						runtime.Gosched() // let the others contend while the lock is held
						if err := ctr.store(v + 1); err != nil {
							return err
						}
						if err := tm.Unlock(); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				if got, err := counter.load(); err != nil || got != threads*iters {
					return fmt.Errorf("counter = %d, %v; want %d (lost updates => mutex broken)",
						got, err, threads*iters)
				}
				if v, err := m.load(); err != nil || v != 0 {
					return fmt.Errorf("mutex word = %d, %v after every unlock", v, err)
				}
				return nil
			}},
	)
}

// onThreads runs body on n sibling threads of the process behind s, each
// with its own syscall handle, and returns the first error once all of
// them have finished.
func onThreads(env Env, s *sys.Sys, n int, body func(th *sys.Sys) error) error {
	handles := make([]*sys.Sys, n)
	for i := range handles {
		th, err := env.NewThread(s)
		if err != nil {
			return err
		}
		handles[i] = th
	}
	errs := make(chan error, n)
	for _, th := range handles {
		go func() { errs <- body(th) }()
	}
	var first error
	for range handles {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
