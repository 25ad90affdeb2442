package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/fs"
)

// ring_sync sizes: each client rewrites a fixed 16 KiB region of its
// own file, one quarter per batch.
const (
	ringRegion     = 16 << 10
	ringWrites     = 16  // writes per batch
	ringWriteSize  = 256 // bytes per write
	ringBatchBytes = ringWrites * ringWriteSize
	ringBatchOps   = 1 + ringWrites + 1 // seek, writes, sync
	ringBatches    = 1024               // distinct batches generated per client
	ringTail       = 256                // batches after SaveFS, before the crash
	ringRecoveries = 5
)

// ringBatch is one generated batch: which quarter of the region it
// rewrites and where its payload starts in the pool.
type ringBatch struct {
	quarter uint8
	data    uint32
}

type ringInputs struct {
	pool    []byte
	batches [numClients][]ringBatch
}

type ringState struct {
	in     *ringInputs
	path   string
	fd     vnros.FD
	shadow []byte
	ops    [][]vnros.Op // one pre-built submission per generated batch
	// inline submits on the caller's goroutine (SubmitWait) instead of
	// handing the batch to the ring's drainer; only the probe stack's
	// replay sets it, because its shims record on the caller's goroutine.
	inline bool
}

var (
	spBatchSync            = spanName("batch_sync")
	spSysSubmit, spSysWait = spanName("sys.SubmitOpts"), spanName("sys.Batch.Wait")
)

func ringConfig() vnros.Config { return vnros.Config{Cores: 2, Shards: 2, WAL: true} }

var ringSync = &workload{
	name: "ring_sync",
	why: "the write/durability use of sys and nr: ring drain, sharded group commit, journal flush, " +
		"checkpoint stalls in the tail; reads and pcache idle",
	gen: func(rng *rand.Rand) any {
		in := &ringInputs{pool: newPool(rng, 256<<10)}
		for c := range in.batches {
			bs := make([]ringBatch, ringBatches)
			for i := range bs {
				bs[i] = ringBatch{quarter: uint8(rng.Intn(ringRegion / ringBatchBytes)),
					data: uint32(rng.Intn(len(in.pool) - ringBatchBytes))}
			}
			in.batches[c] = bs
		}
		return in
	},
	setup: func(inputs any) (*instance, error) {
		in := inputs.(*ringInputs)
		s, err := vnros.Boot(ringConfig())
		if err != nil {
			return nil, err
		}
		initSys, err := s.Init()
		if err != nil {
			return nil, err
		}
		cs := newClients(numClients, ringBatchOps, ringStep)
		if err := runProcesses(s, initSys, cs, "ring", func(c *client) error {
			return ringPopulate(c, in)
		}); err != nil {
			return nil, err
		}
		return &instance{
			clients: cs,
			after:   func(m metrics) error { return ringCrashRecover(s, cs, m) },
			stop:    func() { retire(cs); s.WaitAll() },
			check:   func() error { return checkSystem(s, append(clientHandles(cs), initSys)...) },
		}, nil
	},
	probes: ringProbes,
	reports: concat(syscallLayers, contractLayers,
		[]string{"nr.batch.ns_per_op", "sys.ring.ns_per_op", "sys.ring.speedup_vs_percall", "sched.waitqueue.wake_us",
			"wal.record.ns_per_mutation", "wal.flush.ns_per_round", "wal.checkpoint.ms",
			"walshard.commit.ns_per_round", "walshard.checkpoint.count", "walshard.recover.ms",
			"dev.writes_per_round", "dev.bytes_per_user_byte", "recovery_ms"},
		opClass("batch_sync")),
}

// ringPopulate creates the client's file, makes its 16 KiB region
// durable, and builds every submission it will issue.
func ringPopulate(c *client, in *ringInputs) error {
	st := &ringState{in: in, path: fmt.Sprintf("/ring%d", c.id),
		shadow: append([]byte(nil), in.pool[c.id*ringRegion:][:ringRegion]...)}
	fd, e := c.sys.Open(st.path, vnros.OCreate|vnros.ORdWr)
	if e != vnros.EOK {
		return fmt.Errorf("populate open: %v", e)
	}
	if n, e := c.sys.Write(fd, st.shadow); e != vnros.EOK || n != ringRegion {
		return fmt.Errorf("populate write: %d, %v", n, e)
	}
	if e := c.sys.Sync(); e != vnros.EOK {
		return fmt.Errorf("populate sync: %v", e)
	}
	st.fd = fd
	st.ops = make([][]vnros.Op, len(in.batches[c.id]))
	for i, b := range in.batches[c.id] {
		ops := make([]vnros.Op, 0, ringBatchOps)
		ops = append(ops, vnros.OpSeek(fd, int64(b.quarter)*ringBatchBytes, vnros.SeekSet))
		for w := 0; w < ringWrites; w++ {
			ops = append(ops, vnros.OpWrite(fd, in.pool[int(b.data)+w*ringWriteSize:][:ringWriteSize]))
		}
		st.ops[i] = append(ops, vnros.OpSync())
	}
	c.st = st
	return nil
}

// ringStep submits the client's next batch through the ring, blocks on
// its completion queue, and checks every completion. It returns the
// number of ops of the batch that failed.
func ringStep(c *client) int {
	st := c.st.(*ringState)
	i := c.next % len(st.ops)
	c.next++
	tr := c.tr
	root := tr.request(spBatchSync)
	var comps []vnros.Completion
	var err error
	if st.inline {
		sp := tr.begin(spSysSubmit)
		var e vnros.Errno
		comps, e = c.sys.SubmitWait(st.ops[i])
		err = e.Err()
		tr.end(sp)
	} else {
		sp := tr.begin(spSysSubmit)
		b := c.sys.SubmitOpts(st.ops[i], vnros.SubmitOptions{Wait: vnros.WaitBlock})
		tr.end(sp)
		sp = tr.begin(spSysWait)
		comps, err = b.Wait()
		tr.end(sp)
	}
	tr.end(root)
	if err != nil || len(comps) != ringBatchOps {
		return ringBatchOps
	}
	failed := 0
	for k, cq := range comps {
		if cq.Errno != vnros.EOK || (k >= 1 && k <= ringWrites && cq.Val != ringWriteSize) {
			failed++
		}
	}
	if failed == 0 {
		gb := st.in.batches[c.id][i]
		copy(st.shadow[int(gb.quarter)*ringBatchBytes:], st.in.pool[gb.data:][:ringBatchBytes])
	}
	return failed
}

// ringCrashRecover is the durability half of the workload: checkpoint,
// run ringTail more batches from one client, freeze the disk as a crash
// would leave it, time ringRecoveries recovery boots of that one image,
// and require every acknowledged byte back on the recovered kernel.
func ringCrashRecover(s *vnros.System, cs []*client, m metrics) error {
	if err := s.SaveFS(); err != nil {
		return invalidf("SaveFS: %w", err)
	}
	tail := runPhase(cs[:1], time.Minute, ringTail, ringTail+1, false)
	if tail.failed > 0 {
		return invalidf("%d ops failed in the %d batches before the crash", tail.failed, ringTail)
	}
	image, err := freezeDisk(s.BlockDev)
	if err != nil {
		return err
	}
	cfg := ringConfig()
	cfg.RestoreFS, cfg.BootDisk = true, image
	var boots []time.Duration
	var recovered *vnros.System
	for i := 0; i < ringRecoveries; i++ {
		t0 := time.Now()
		if recovered, err = vnros.Boot(cfg); err != nil {
			return invalidf("recovery boot: %w", err)
		}
		boots = append(boots, time.Since(t0))
	}
	sort.Slice(boots, func(i, j int) bool { return boots[i] < boots[j] })
	m.set("recovery_ms", "ms", float64(boots[len(boots)/2])/1e6)

	initSys, err := recovered.Init()
	if err != nil {
		return err
	}
	got := make([]byte, ringRegion)
	for _, c := range cs {
		st := c.st.(*ringState)
		fd, e := initSys.Open(st.path, vnros.ORdOnly)
		if e != vnros.EOK {
			return invalidf("recovered kernel lost %s: %v", st.path, e)
		}
		if n, e := initSys.Read(fd, got); e != vnros.EOK || n != ringRegion || !bytes.Equal(got, st.shadow) {
			return invalidf("recovered %s differs from the acknowledged bytes (read %d, %v)", st.path, n, e)
		}
	}
	return checkSystem(recovered, initSys)
}

// freezeDisk copies the block device as a crash would leave it. The
// journal's background checkpoint worker may still be writing when the
// last batch is acknowledged, and a copy taken across its writes is not
// a state any crash could produce, so the copy is repeated until two
// in a row are identical.
func freezeDisk(d fs.BlockStore) (*fs.MemBlockStore, error) {
	snap := func() (*fs.MemBlockStore, error) {
		img := fs.NewMemBlockStore(d.BlockSize(), d.NumBlocks())
		buf := make([]byte, d.BlockSize())
		for i := uint64(0); i < d.NumBlocks(); i++ {
			if err := d.ReadBlock(i, buf); err != nil {
				return nil, err
			}
			if err := img.WriteBlock(i, buf); err != nil {
				return nil, err
			}
		}
		return img, nil
	}
	same := func(a, b *fs.MemBlockStore) bool {
		x, y := make([]byte, d.BlockSize()), make([]byte, d.BlockSize())
		for i := uint64(0); i < d.NumBlocks(); i++ {
			if a.ReadBlock(i, x) != nil || b.ReadBlock(i, y) != nil || !bytes.Equal(x, y) {
				return false
			}
		}
		return true
	}
	prev, err := snap()
	if err != nil {
		return nil, err
	}
	for try := 0; try < 20; try++ {
		next, err := snap()
		if err != nil {
			return nil, err
		}
		if same(prev, next) {
			return next, nil
		}
		prev = next
	}
	return nil, errors.New("disk never quiesced after the last acknowledged batch")
}
