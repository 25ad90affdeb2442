package ulib

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// vcSlab is where the block-manager VCs pretend their slab is mapped;
// they never touch memory, so no kernel is booted for them.
const vcSlab = sys.UserVABase

// registerRuntimeObligations is the user-space runtime wave: the block
// manager's invariants, conservation and pointer checks (on the manager
// directly), green-thread scheduling order, and the word-backed trylock
// and semaphore on a live process.
func registerRuntimeObligations(g *verifier.Registry, env Env) {
	g.Register(
		verifier.Obligation{Module: "ulib", Name: "heap-invariant-random", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				h := newHeap(vcSlab, 1<<16)
				var live []mmu.VAddr
				for i := 0; i < 2000; i++ {
					if r.Intn(2) == 0 || len(live) == 0 {
						if p, ok := h.alloc(uint64(1 + r.Intn(500))); ok {
							live = append(live, p)
						}
					} else {
						j := r.Intn(len(live))
						if err := h.free(live[j]); err != nil {
							return err
						}
						live = append(live[:j], live[j+1:]...)
					}
					if i%100 == 0 {
						if _, err := h.check(); err != nil {
							return fmt.Errorf("iter %d: %w", i, err)
						}
					}
				}
				_, err := h.check()
				return err
			}},
		verifier.Obligation{Module: "ulib", Name: "heap-conservation-and-reuse", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				h := newHeap(vcSlab, 1<<14)
				var ptrs []mmu.VAddr
				for len(ptrs) <= (1<<14)/64 {
					p, ok := h.alloc(64)
					if !ok {
						break
					}
					ptrs = append(ptrs, p)
				}
				if len(ptrs) != (1<<14)/64 {
					return fmt.Errorf("%d blocks of 64 bytes fit in 16 KiB", len(ptrs))
				}
				for _, p := range ptrs {
					if err := h.free(p); err != nil {
						return err
					}
				}
				if h.liveBytes != 0 || h.live != 0 {
					return fmt.Errorf("leak: %d bytes, %d blocks", h.liveBytes, h.live)
				}
				// Full coalescing: one max-size allocation must now fit.
				if _, ok := h.alloc((1 << 14) - 64); !ok {
					return fmt.Errorf("arena did not coalesce")
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "heap-rejects-double-free", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				h := newHeap(vcSlab, 1<<12)
				p, ok := h.alloc(32)
				if !ok {
					return fmt.Errorf("alloc of 32 bytes failed")
				}
				if err := h.free(p); err != nil {
					return err
				}
				if err := h.free(p); err == nil {
					return fmt.Errorf("double free accepted")
				}
				if err := h.free(0); err == nil {
					return fmt.Errorf("null free accepted")
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "heap-alignment", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				h := newHeap(vcSlab, 1<<16)
				for i := 0; i < 500; i++ {
					p, ok := h.alloc(uint64(1 + r.Intn(300)))
					if !ok {
						break
					}
					if p%16 != 0 {
						return fmt.Errorf("allocation at %#x not 16-byte aligned", uint64(p))
					}
				}
				_, err := h.check()
				return err
			}},
		verifier.Obligation{Module: "ulib", Name: "uthreads-cooperative-order", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				s := NewUScheduler()
				var trace []int
				for i := 0; i < 3; i++ {
					i := i
					s.Spawn(func(t *UThread) {
						trace = append(trace, i)
						t.Yield()
						trace = append(trace, i+10)
					})
				}
				if err := s.Run(); err != nil {
					return err
				}
				want := []int{0, 1, 2, 10, 11, 12}
				if len(trace) != len(want) {
					return fmt.Errorf("trace = %v", trace)
				}
				for i := range want {
					if trace[i] != want[i] {
						return fmt.Errorf("round-robin order broken: %v", trace)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "uthreads-detect-deadlock", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				s := NewUScheduler()
				s.Spawn(func(t *UThread) { t.Park() }) // never unparked
				if err := s.Run(); err == nil {
					return fmt.Errorf("deadlock not detected")
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "uthread-join-sees-completion", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// Joins always observe the target's writes — join is a
				// synchronization point.
				s := NewUScheduler()
				results := make([]int, 8)
				var workers []*UThread
				for i := 0; i < 8; i++ {
					i := i
					workers = append(workers, s.Spawn(func(t *UThread) {
						for y := 0; y < 1+r.Intn(3); y++ {
							t.Yield()
						}
						results[i] = i * i
					}))
				}
				ok := true
				s.Spawn(func(t *UThread) {
					for i, w := range workers {
						t.Join(w)
						if results[i] != i*i {
							ok = false
						}
					}
				})
				if err := s.Run(); err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("join observed incomplete worker state")
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "uthread-spawn-from-thread", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// Threads spawned from running threads join the same
				// round-robin and all complete; depth-first chains of
				// spawns terminate.
				s := NewUScheduler()
				const depth = 20
				ran := make([]bool, depth)
				var spawn func(t *UThread, d int)
				spawn = func(t *UThread, d int) {
					ran[d] = true
					if d+1 < depth {
						child := t.Spawn(func(c *UThread) { spawn(c, d+1) })
						t.Join(child)
					}
				}
				s.Spawn(func(t *UThread) { spawn(t, 0) })
				if err := s.Run(); err != nil {
					return err
				}
				for d, ok := range ran {
					if !ok {
						return fmt.Errorf("depth %d never ran", d)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "trylock-accurate", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				m, err := New(s).NewMutex()
				if err != nil {
					return err
				}
				for i := 0; i < 100; i++ {
					if ok, err := m.TryLock(); err != nil || !ok {
						return fmt.Errorf("iter %d: TryLock on free mutex = %t, %v", i, ok, err)
					}
					if ok, err := m.TryLock(); err != nil || ok {
						return fmt.Errorf("iter %d: TryLock on held mutex = %t, %v", i, ok, err)
					}
					if err := m.Unlock(); err != nil {
						return err
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "semaphore-bounds-concurrency", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				const permits, threads, rounds = 2, 4, 60
				sem, err := New(s).NewSemaphore(permits)
				if err != nil {
					return err
				}
				var inside, maxSeen atomic.Int32
				err = onThreads(env, s, threads, func(th *sys.Sys) error {
					ts := &Semaphore{sem.on(th)}
					for i := 0; i < rounds; i++ {
						if err := ts.Acquire(); err != nil {
							return err
						}
						n := inside.Add(1)
						for {
							m := maxSeen.Load()
							if n <= m || maxSeen.CompareAndSwap(m, n) {
								break
							}
						}
						runtime.Gosched() // hold the permit while the others run into the bound
						inside.Add(-1)
						if err := ts.Release(); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				if maxSeen.Load() > permits {
					return fmt.Errorf("semaphore admitted %d concurrent holders", maxSeen.Load())
				}
				if v, err := sem.Value(); err != nil || v != permits {
					return fmt.Errorf("final count = %d, %v", v, err)
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "semaphore-conservation", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				// Tokens are conserved: after equal acquires and
				// releases from many threads, the count returns to the
				// initial value.
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				initial := uint32(1 + r.Intn(3))
				sem, err := New(s).NewSemaphore(initial)
				if err != nil {
					return err
				}
				err = onThreads(env, s, 4, func(th *sys.Sys) error {
					ts := &Semaphore{sem.on(th)}
					for i := 0; i < 60; i++ {
						if err := ts.Acquire(); err != nil {
							return err
						}
						if err := ts.Release(); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				if v, err := sem.Value(); err != nil || v != initial {
					return fmt.Errorf("count = %d, %v; want %d", v, err, initial)
				}
				return nil
			}},
	)
}
