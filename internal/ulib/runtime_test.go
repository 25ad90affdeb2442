package ulib

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/verified-os/vnros/internal/hw/mmu"
)

func TestHeapAllocFree(t *testing.T) {
	h := newHeap(vcSlab, 1<<12)
	p1, ok1 := h.alloc(100)
	p2, ok2 := h.alloc(200)
	if !ok1 || !ok2 {
		t.Fatalf("alloc: %t %t", ok1, ok2)
	}
	if p1 != vcSlab || p2 != vcSlab+112 {
		t.Fatalf("blocks at %#x, %#x: not address-ordered first fit", uint64(p1), uint64(p2))
	}
	if free, err := h.check(); err != nil || free != 1 || h.live != 2 || h.liveBytes != 112+208 {
		t.Fatalf("after allocs: free=%d live=%d bytes=%d, %v", free, h.live, h.liveBytes, err)
	}
	if err := h.free(p1 + 16); !errors.Is(err, ErrBadFree) {
		t.Fatalf("free of interior pointer: %v", err)
	}
	if err := h.free(p1); err != nil {
		t.Fatal(err)
	}
	if err := h.free(p2); err != nil {
		t.Fatal(err)
	}
	if free, err := h.check(); err != nil || free != 1 || len(h.blocks) != 1 {
		t.Fatalf("after frees: free=%d blocks=%d, %v", free, len(h.blocks), err)
	}
}

func TestHeapOverflowGuards(t *testing.T) {
	h := newHeap(vcSlab, 1<<12)
	for _, n := range []uint64{0, 1<<12 + 1, 1 << 20, math.MaxUint64 - 14, math.MaxUint64} {
		if p, ok := h.alloc(n); ok {
			t.Fatalf("alloc(%d) = %#x in a 4 KiB slab", n, uint64(p))
		}
	}
	if _, ok := h.alloc(1 << 12); !ok {
		t.Fatal("whole-slab alloc refused")
	}
	if _, err := h.check(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapQuickRandomTraffic(t *testing.T) {
	prop := func(seed int64) bool {
		h := newHeap(vcSlab, 1<<14)
		live := map[mmu.VAddr]uint64{}
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int(rng>>33) % n
			if v < 0 {
				v = -v
			}
			return v
		}
		for i := 0; i < 300; i++ {
			if next(2) == 0 || len(live) == 0 {
				sz := uint64(1 + next(200))
				p, ok := h.alloc(sz)
				if !ok {
					continue
				}
				// No live block may overlap the new one.
				for q, qsz := range live {
					if p < q+mmu.VAddr(qsz) && q < p+mmu.VAddr(sz) {
						return false
					}
				}
				live[p] = sz
			} else {
				for p := range live {
					if h.free(p) != nil {
						return false
					}
					delete(live, p)
					break
				}
			}
		}
		_, err := h.check()
		return err == nil && h.live == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestUSchedulerJoin(t *testing.T) {
	s := NewUScheduler()
	var order []string
	worker := s.Spawn(func(t *UThread) {
		order = append(order, "worker-start")
		t.Yield()
		order = append(order, "worker-end")
	})
	s.Spawn(func(t *UThread) {
		order = append(order, "joiner-start")
		t.Join(worker)
		order = append(order, "joined")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"worker-start", "joiner-start", "worker-end", "joined"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestUSchedulerJoinFinished(t *testing.T) {
	s := NewUScheduler()
	worker := s.Spawn(func(t *UThread) {})
	s.Spawn(func(t *UThread) {
		t.Yield() // let worker finish first
		t.Join(worker)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUSchedulerParkUnpark(t *testing.T) {
	s := NewUScheduler()
	var got []int
	var sleeper *UThread
	sleeper = s.Spawn(func(t *UThread) {
		got = append(got, 1)
		t.Park()
		got = append(got, 3)
	})
	s.Spawn(func(t *UThread) {
		got = append(got, 2)
		t.Unpark(sleeper)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v", got)
	}
}

func TestUSchedulerSpawnFromThread(t *testing.T) {
	s := NewUScheduler()
	ran := false
	s.Spawn(func(t *UThread) {
		child := t.Spawn(func(*UThread) { ran = true })
		t.Join(child)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("child never ran")
	}
}
