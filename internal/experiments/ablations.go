package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/pt"
)

// This file implements the ablation benches DESIGN.md commits to:
//
//  1. NR flat combining vs a naive global mutex around the same
//     sequential structure — why NrOS's design produces Fig. 1b/1c's
//     shape.
//  2. TLB caching on/off in the MMU model.
//  3. Sharded NR (multiple logs) vs a single log.
//  4. Verified page table with runtime ghost checks on vs off — the
//     "verification artifacts are free at runtime" claim.

// mutexAS is the naive baseline: one address space behind one mutex.
type mutexAS struct {
	mu sync.Mutex
	as pt.AddressSpace
}

// AblationNRvsMutex compares per-op map latency of the NR-replicated
// address space against a global-mutex one at the given core count.
func AblationNRvsMutex(cores, opsPerCore int) (nrMean, mutexMean time.Duration, err error) {
	p, err := MapLatency(pt.VariantVerified, cores, opsPerCore)
	if err != nil {
		return 0, 0, err
	}
	nrMean = p.Mean

	pm := mem.New(512 << 20)
	src := pt.NewSimpleFrameSource(pm, 0x1000, 128<<20)
	as, err := pt.NewVerified(pm, src, nil)
	if err != nil {
		return 0, 0, err
	}
	m := &mutexAS{as: as}
	var wg sync.WaitGroup
	errs := make(chan error, cores)
	elapsed := make([]time.Duration, cores)
	start := make(chan struct{})
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := mmu.VAddr(0x0000_0300_0000_0000 + uint64(c)<<32)
			<-start
			t0 := time.Now()
			for i := 0; i < opsPerCore; i++ {
				va := base + mmu.VAddr(uint64(i)*mmu.L1PageSize)
				m.mu.Lock()
				e := m.as.Map(va, 0x200_0000, mmu.L1PageSize, mmu.Flags{Writable: true})
				m.mu.Unlock()
				if e != nil {
					errs <- e
					return
				}
			}
			elapsed[c] = time.Since(t0)
			errs <- nil
		}(c)
	}
	close(start)
	wg.Wait()
	for c := 0; c < cores; c++ {
		if e := <-errs; e != nil {
			return 0, 0, e
		}
	}
	var total time.Duration
	for _, e := range elapsed {
		total += e
	}
	mutexMean = total / time.Duration(cores*opsPerCore)
	return nrMean, mutexMean, nil
}

// AblationTLB measures translation latency with the TLB enabled vs a
// 1-entry TLB that thrashes, over a strided access pattern.
func AblationTLB(translations int) (warm, cold time.Duration, err error) {
	if warm, _, err = tlbRun(mmu.DefaultTLBSize, translations); err != nil {
		return
	}
	cold, _, err = tlbRun(1, translations)
	return
}

// tlbStridePages is the stride of the TLB ablation's access pattern.
const tlbStridePages = 32

// tlbRun translates round-robin over tlbStridePages mapped pages through
// a TLB of tlbSize entries, returning the mean latency and the TLB's
// hit count.
func tlbRun(tlbSize, translations int) (perOp time.Duration, hits uint64, err error) {
	pm := mem.New(256 << 20)
	src := pt.NewSimpleFrameSource(pm, 0x1000, 64<<20)
	as, err := pt.NewVerified(pm, src, nil)
	if err != nil {
		return 0, 0, err
	}
	base := mmu.VAddr(0x4000_0000)
	for i := 0; i < tlbStridePages; i++ {
		if err := as.Map(base+mmu.VAddr(i*mmu.L1PageSize), mem.PAddr(0x100_0000+i*mmu.L1PageSize),
			mmu.L1PageSize, mmu.Flags{Writable: true}); err != nil {
			return 0, 0, err
		}
	}
	u := mmu.NewWithTLB(pm, mmu.NewTLB(tlbSize))
	u.SetRoot(as.Root(), 1)
	t0 := time.Now()
	for i := 0; i < translations; i++ {
		va := base + mmu.VAddr((i%tlbStridePages)*mmu.L1PageSize) + mmu.VAddr(i%4096)
		if _, f := u.Translate(va, mmu.AccessRead); f != nil {
			return 0, 0, fmt.Errorf("translate: %v", f)
		}
	}
	perOp = time.Duration(int64(time.Since(t0)) / int64(translations))
	hits, _ = u.TLB().HitRate()
	return perOp, hits, nil
}

// kvDS is a trivial NR payload for the sharding ablation.
type kvDS struct{ m map[uint64]uint64 }

type kvW struct{ k, v uint64 }

func newKVDS() nr.DataStructure[uint64, kvW, uint64] {
	return &kvDS{m: make(map[uint64]uint64)}
}

func (d *kvDS) DispatchRead(k uint64) uint64 { return d.m[k] }
func (d *kvDS) DispatchWrite(w kvW) uint64   { d.m[w.k] = w.v; return w.v }

// AblationSharding compares write throughput of 1 NR log vs `shards`
// independent logs, with `threads` writers over a partitionable key
// space.
func AblationSharding(threads, shards, opsPerThread int) (single, sharded float64, err error) {
	run := func(nshards int) (float64, error) {
		s := nr.NewSharded(nshards, nr.Options{Replicas: 1}, newKVDS)
		var wg sync.WaitGroup
		errs := make(chan error, threads)
		start := make(chan struct{})
		t0 := time.Now()
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				th, err := s.Register(0)
				if err != nil {
					errs <- err
					return
				}
				<-start
				for i := 0; i < opsPerThread; i++ {
					key := uint64(t)<<32 | uint64(i)
					th.Execute(key, kvW{k: key, v: uint64(i)})
				}
				errs <- nil
			}(t)
		}
		close(start)
		wg.Wait()
		for t := 0; t < threads; t++ {
			if e := <-errs; e != nil {
				return 0, e
			}
		}
		dt := time.Since(t0).Seconds()
		return float64(threads*opsPerThread) / dt, nil
	}
	if single, err = run(1); err != nil {
		return
	}
	sharded, err = run(shards)
	return
}

// AblationGhostChecks measures the verified page table's map latency
// with runtime ghost checking off (the shipped configuration) vs on
// (the debug/verification configuration) — single-threaded, isolating
// the cost of the checks themselves.
func AblationGhostChecks(ops int) (off, on time.Duration, err error) {
	run := func(ghost bool) (time.Duration, error) {
		pm := mem.New(512 << 20)
		src := pt.NewSimpleFrameSource(pm, 0x1000, 128<<20)
		as, err := pt.NewVerified(pm, src, nil)
		if err != nil {
			return 0, err
		}
		as.EnableGhostChecks(ghost)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			va := mmu.VAddr(0x4000_0000 + uint64(i)*mmu.L1PageSize)
			if err := as.Map(va, 0x200_0000, mmu.L1PageSize, mmu.Flags{Writable: true}); err != nil {
				return 0, err
			}
		}
		return time.Duration(int64(time.Since(t0)) / int64(ops)), nil
	}
	if off, err = run(false); err != nil {
		return
	}
	on, err = run(true)
	return
}

// RenderAblations runs all four at modest sizes and prints a summary.
func RenderAblations() (string, error) {
	var b strings.Builder
	b.WriteString("Ablations (design choices from DESIGN.md)\n")

	nrMean, muMean, err := AblationNRvsMutex(8, 300)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  1. map @8 cores: NR %.2fus/op vs global mutex %.2fus/op\n",
		us(nrMean), us(muMean))

	warm, cold, err := AblationTLB(20000)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  2. translate: TLB %.3fus vs 1-entry TLB %.3fus (%.1fx)\n",
		us(warm), us(cold), float64(cold)/float64(warm))

	single, sharded, err := AblationSharding(4, 4, 3000)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  3. kv writes: 1 log %.0f ops/s vs 4 logs %.0f ops/s (%.2fx)\n",
		single, sharded, sharded/single)

	off, on, err := AblationGhostChecks(2000)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  4. verified map: ghost checks off %.2fus vs on %.2fus (%.1fx)\n",
		us(off), us(on), float64(on)/float64(off))

	one, two, err := AblationReadScaling(4, 20000)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  5. reads @4 threads: 1 replica %.0f ops/s vs 2 replicas %.0f ops/s (%.2fx)\n",
		one, two, two/one)
	return b.String(), nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

// AblationReadScaling measures read throughput against a single NR
// instance as reader count grows, with replicas = 1 vs readers pinned
// across 2 replicas — NR's read-concurrency mechanism (§4.1: replicas
// serve reads locally under a readers-writer lock).
func AblationReadScaling(readers, opsPerReader int) (oneReplica, twoReplicas float64, err error) {
	run := func(replicas int) (float64, error) {
		n := nr.New(nr.Options{Replicas: replicas}, newKVDS)
		seed := n.MustRegister(0)
		for k := uint64(0); k < 64; k++ {
			seed.Execute(kvW{k: k, v: k})
		}
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		start := make(chan struct{})
		t0 := time.Now()
		for t := 0; t < readers; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				c, err := n.Register(t % replicas)
				if err != nil {
					errs <- err
					return
				}
				<-start
				for i := 0; i < opsPerReader; i++ {
					c.ExecuteRead(uint64(i % 64))
				}
				errs <- nil
			}(t)
		}
		close(start)
		wg.Wait()
		for t := 0; t < readers; t++ {
			if e := <-errs; e != nil {
				return 0, e
			}
		}
		return float64(readers*opsPerReader) / time.Since(t0).Seconds(), nil
	}
	if oneReplica, err = run(1); err != nil {
		return
	}
	twoReplicas, err = run(2)
	return
}
