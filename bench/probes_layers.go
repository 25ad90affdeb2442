package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
	"github.com/verified-os/vnros/internal/walshard"
)

// The probes in this file call one layer's public API directly, with
// bench doubles for what the layer sits on.

func mixProbes(inputs any, inst *instance, tp tracedPhases, m metrics) ([]*tracer, error) {
	in := inputs.(*mixInputs)
	probeObsOverhead(inst, tp, m)
	t, err := probeSyscallLayers(streamProbe{
		opsPer: 1, spansPerStep: 16, step: mixStep, contract: true,
		populate: func(c *client) error { return mixPopulate(c, in) },
		boot:     func() (*vnros.System, error) { return vnros.Boot(vnros.Config{Cores: 2}) },
	}, m)
	if err != nil {
		return nil, err
	}
	if err := probeMmapPair(m); err != nil {
		return nil, err
	}
	return []*tracer{t}, nil
}

func ringProbes(inputs any, inst *instance, tp tracedPhases, m metrics) ([]*tracer, error) {
	in := inputs.(*ringInputs)
	t, err := probeSyscallLayers(streamProbe{
		opsPer: ringBatchOps, spansPerStep: 96, step: ringStep, contract: true, wal: true,
		populate: func(c *client) error { return ringPopulate(c, in) },
		boot:     func() (*vnros.System, error) { return vnros.Boot(ringConfig()) },
		// The probe stack's shims record on the caller's goroutine, so its
		// replay submits inline instead of handing off to the ring drainer.
		onStack: func(c *client) { c.st.(*ringState).inline = true },
	}, m)
	if err != nil {
		return nil, err
	}
	probeWaitQueue(m)
	if err := probeRing(in, m); err != nil {
		return nil, err
	}
	if err := probeWalShard(in, m); err != nil {
		return nil, err
	}
	return []*tracer{t}, nil
}

func readProbes(inputs any, inst *instance, tp tracedPhases, m metrics) ([]*tracer, error) {
	in := inputs.(*readInputs)
	t, err := probeSyscallLayers(streamProbe{
		opsPer: 1, spansPerStep: 20, step: readStep, caches: 2,
		populate: func(c *client) error { return readPopulate(c, in) },
		boot:     func() (*vnros.System, error) { return vnros.Boot(readConfig()) },
	}, m)
	if err != nil {
		return nil, err
	}
	resident := 0
	for i := 0; i < inst.sys.NumShards(); i++ {
		r, _, _ := inst.sys.PCache(i).Stats()
		resident += r
	}
	m.set("core.pcache.resident_pages", "count", float64(resident))
	probePcache(in, m)
	return []*tracer{t}, nil
}

func echoProbes(inputs any, inst *instance, tp tracedPhases, m metrics) ([]*tracer, error) {
	in := inputs.(*echoInputs)
	probeWaitQueue(m)
	return nil, probeNetstack(in, m)
}

func verifyProbes(inputs any, inst *instance, tp tracedPhases, m metrics) ([]*tracer, error) {
	in := inputs.(*verifyInputs)
	seed := in.seeds[0]
	serial := vnros.NewVCRegistry().Run(vnros.VCOptions{Seed: seed, Jobs: 1})
	m.set("verifier.serial_ms", "ms", float64(serial.Total)/1e6)

	// The parallel run doubles as the traced run of the verifier: one
	// span per VC under the run's root, rebuilt from the report.
	t := newTracer(0, 1024)
	t.src = "probe"
	root := t.request(spVerifyRun)
	par := verifyRun(seed, runtime.GOMAXPROCS(0), func(r verifier.Result) {
		if r.Skipped {
			return // serialModule's VCs, seen again when the second pass runs them
		}
		end := int64(time.Since(t.epoch))
		t.spans = append(t.spans, span{name: spanName("vc." + r.Obligation.ID()), parent: root,
			req: t.req, start: end - int64(r.Duration), end: end})
	})
	t.end(root)
	if n := len(serial.Failed()) + par.failed; n > 0 {
		return nil, invalidf("%d VCs failed in the verifier probe", n)
	}
	m.set("verifier.max_vc_ms", "ms", float64(par.max)/1e6)
	m.set("verifier.parallel_efficiency", "ratio", float64(par.sum)/(float64(par.wall)*float64(par.jobs)))
	m.set("verifier.vcs", "count", float64(par.vcs))
	return []*tracer{t}, nil
}

// probeMmapPair times mmap + munmap of one page on the probe stack's
// kernel through NR — the mm and pt work of the paper's Fig. 1b/c op.
func probeMmapPair(m metrics) error {
	const pairs = 5000
	stack, err := newProbeStack(false, 0)
	if err != nil {
		return err
	}
	h, err := stack.spawn("mapper")
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		va, e := h.MMap(vnros.PageSize)
		if e != sys.EOK {
			return fmt.Errorf("probe mmap: %v", e)
		}
		if e := h.MUnmap(va); e != sys.EOK {
			return fmt.Errorf("probe munmap: %v", e)
		}
	}
	m.set("sys.kernel.mmap_pair_ns", "ns", float64(time.Since(t0))/pairs)
	return nil
}

// probeRing compares the submission ring with the per-call API on the
// facade: 18 ops and no sync, so the difference is the ring's (one
// crossing and one combiner round instead of 18), not the journal's.
func probeRing(in *ringInputs, m metrics) error {
	const rounds = 400
	s, err := vnros.Boot(ringConfig())
	if err != nil {
		return err
	}
	initSys, err := s.Init()
	if err != nil {
		return err
	}
	var ring, perCall time.Duration
	var runErr error
	done := make(chan struct{})
	if _, err := s.Run(initSys, "ringprobe", func(p *vnros.Process) int {
		defer close(done)
		fd, e := p.Sys.Open("/ringprobe", vnros.OCreate|vnros.ORdWr)
		if e != vnros.EOK {
			runErr = fmt.Errorf("ring probe open: %v", e)
			return 1
		}
		ops := []vnros.Op{vnros.OpSeek(fd, 0, vnros.SeekSet)}
		for w := 0; w < ringBatchOps-1; w++ {
			ops = append(ops, vnros.OpWrite(fd, in.pool[w*ringWriteSize:][:ringWriteSize]))
		}
		viaRing := func() bool {
			comps, err := p.Sys.SubmitOpts(ops, vnros.SubmitOptions{Wait: vnros.WaitBlock}).Wait()
			if err != nil {
				return false
			}
			for _, c := range comps {
				if c.Errno != vnros.EOK {
					return false
				}
			}
			return true
		}
		viaCalls := func() bool {
			if _, e := p.Sys.Seek(fd, 0, vnros.SeekSet); e != vnros.EOK {
				return false
			}
			for w := 0; w < ringBatchOps-1; w++ {
				if _, e := p.Sys.Write(fd, in.pool[w*ringWriteSize:][:ringWriteSize]); e != vnros.EOK {
					return false
				}
			}
			return true
		}
		for i := 0; i < rounds/10; i++ { // warm both paths
			if !viaRing() || !viaCalls() {
				runErr = fmt.Errorf("ring probe warm-up failed")
				return 1
			}
		}
		// Alternate in blocks so a disturbance of the box hits both sides.
		for block := 0; block < 10; block++ {
			t0 := time.Now()
			for i := 0; i < rounds/10; i++ {
				if !viaRing() {
					runErr = fmt.Errorf("ring probe: batch failed")
					return 1
				}
			}
			t1 := time.Now()
			for i := 0; i < rounds/10; i++ {
				if !viaCalls() {
					runErr = fmt.Errorf("ring probe: call failed")
					return 1
				}
			}
			ring += t1.Sub(t0)
			perCall += time.Since(t1)
		}
		if err := p.Sys.ContractErr(); err != nil {
			runErr = invalid{err}
		}
		return 0
	}); err != nil {
		return err
	}
	<-done
	s.WaitAll()
	if runErr != nil {
		return runErr
	}
	m.set("sys.ring.ns_per_op", "ns", float64(ring)/(rounds*ringBatchOps))
	m.set("sys.ring.speedup_vs_percall", "ratio", float64(perCall)/float64(ring))
	return nil
}

// probeWalShard drives a two-shard walshard.Group directly with the
// workload's record stream — 16 writes of 256 B per commit round, the
// rounds alternating between the shards as the two clients' files do —
// over a counting block store.
func probeWalShard(in *ringInputs, m metrics) error {
	const rounds = 4000
	store := &countingStore{inner: fs.NewMemBlockStore(probeBlockSize, probeDiskBlocks)}
	g, err := walshard.New(store, 2, 0)
	if err != nil {
		return err
	}
	if err := g.Format(); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		g.Journal(i).Record(fs.Mutation{Kind: fs.MutCreate, Path: "/f"})
	}
	if err := g.Commit(); err != nil {
		return err
	}
	obs.Reset()
	obs.Enable()
	defer obs.Disable()
	var commit time.Duration
	for r := 0; r < rounds; r++ {
		b := in.batches[r%numClients][r%ringBatches]
		j := g.Journal(r % 2)
		for w := 0; w < ringWrites; w++ {
			j.Record(fs.Mutation{Kind: fs.MutWrite, Ino: 2,
				Off:  uint64(b.quarter)*ringBatchBytes + uint64(w*ringWriteSize),
				Data: in.pool[int(b.data)+w*ringWriteSize:][:ringWriteSize]})
		}
		t0 := time.Now()
		if err := g.Commit(); err != nil {
			return fmt.Errorf("walshard probe commit: %w", err)
		}
		commit += time.Since(t0)
	}
	g.Drain()
	m.set("walshard.commit.ns_per_round", "ns", float64(commit)/rounds)
	m.set("walshard.checkpoint.count", "count", float64(obs.WalShardCheckpoints.Load()))

	reopened, err := walshard.New(store, 2, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < 2; i++ {
		if _, err := reopened.RecoverShard(i); err != nil {
			return fmt.Errorf("walshard probe recover: %w", err)
		}
	}
	m.set("walshard.recover.ms", "ms", float64(time.Since(t0))/1e6)
	return nil
}

// sliceFrames is a pcache.FrameSource over plain Go memory.
type sliceFrames struct {
	frames [][]byte
	free   []mem.PAddr
}

func (s *sliceFrames) AllocFrame() (mem.PAddr, error) {
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free = s.free[:n-1]
		return f, nil
	}
	s.frames = append(s.frames, make([]byte, pcache.PageSize))
	return mem.PAddr(len(s.frames)) * pcache.PageSize, nil
}

func (s *sliceFrames) FreeFrame(f mem.PAddr) { s.free = append(s.free, f) }

func (s *sliceFrames) WriteFrame(f mem.PAddr, off uint64, p []byte) {
	copy(s.frames[f/pcache.PageSize-1][off:], p)
}

func (s *sliceFrames) ReadFrame(f mem.PAddr, off uint64, p []byte) {
	copy(p, s.frames[f/pcache.PageSize-1][off:])
}

// probePcache calls pcache.Cache directly over a bench frame source and
// a filler that serves the workload's page contents.
func probePcache(in *readInputs, m metrics) {
	fills := 0
	filler := func(ino fs.Ino, off uint64, p []byte) (int, sys.Errno) {
		fills++
		return copy(p, in.base[pageWindow(int(ino), int(off/readPage)):][:readPage]), sys.EOK
	}
	buf := make([]byte, readPage)

	// Hit: a resident set, read round and round.
	const resident, reads = 512, 100_000
	c := pcache.New(&sliceFrames{}, 0, 0)
	for p := 0; p < resident; p++ {
		c.ReadAt(fs.Ino(2+p/readFilePages), uint64(p%readFilePages)*readPage, buf, filler, 0)
	}
	fills = 0
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		p := i % resident
		c.ReadAt(fs.Ino(2+p/readFilePages), uint64(p%readFilePages)*readPage, buf, filler, 0)
	}
	m.set("pcache.hit.ns_per_read", "ns", float64(time.Since(t0))/reads)
	m.set("pcache.resident_hit_ratio", "ratio", 1-float64(fills)/reads)

	// Invalidate: kill one resident page per call (refilled untimed).
	const kills = 20000
	var spent time.Duration
	for i := 0; i < kills; i++ {
		p := i % resident
		ino, off := fs.Ino(2+p/readFilePages), uint64(p%readFilePages)*readPage
		t0 := time.Now()
		c.InvalidateRange(ino, off, off+readWriteSize)
		spent += time.Since(t0)
		c.ReadAt(ino, off, buf, filler, 0)
	}
	m.set("pcache.invalidate.ns_per_call", "ns", float64(spent)/kills)

	// Miss: cycle through twice the cache's bound, so every read fills,
	// inserts and evicts.
	const misses = 20000
	small := pcache.New(&sliceFrames{}, 0, 256)
	t0 = time.Now()
	for i := 0; i < misses; i++ {
		p := i % 512
		small.ReadAt(fs.Ino(2+p/readFilePages), uint64(p%readFilePages)*readPage, buf, filler, 0)
	}
	m.set("pcache.miss.ns_per_read", "ns", float64(time.Since(t0))/misses)

	// Hit ratio and evictions on the workload's own key stream: both
	// clients' streams interleaved over two caches of the kernel's
	// default bound (one per fs shard), writes invalidating. One pass
	// warms, the second is counted.
	caches := []*pcache.Cache{pcache.New(&sliceFrames{}, 0, 0), pcache.New(&sliceFrames{}, 0, 0)}
	pass := func() (reads int) {
		for i := 0; i < probeOps; i++ {
			for cl := 0; cl < numClients; cl++ {
				op := in.streams[cl][i%readStream]
				f := numClients*int(op.file) + cl
				ino, off := fs.Ino(2+f), uint64(op.page)*readPage
				if op.write {
					caches[f%2].InvalidateRange(ino, off+uint64(op.in), off+uint64(op.in)+readWriteSize)
					continue
				}
				caches[f%2].ReadAt(ino, off, buf, filler, cl)
				reads++
			}
		}
		return reads
	}
	pass()
	obs.Reset()
	obs.Enable()
	fills = 0
	n := pass()
	obs.Disable()
	m.set("pcache.hit_ratio", "ratio", 1-float64(fills)/float64(n))
	m.set("pcache.evictions", "count", float64(obs.PCacheEvictions.Load()))
}

// wire is a netstack.Device that hands frames straight to its peer.
type wire struct {
	addr    uint64
	peer    *wire
	handler func([]byte)
}

func (w *wire) Addr() uint64              { return w.addr }
func (w *wire) SetHandler(h func([]byte)) { w.handler = h }
func (w *wire) Send(frame []byte) error   { w.peer.handler(frame); return nil }

// probeNetstack times the wire codec on the workload's datagrams and a
// stack-to-stack round trip with no kernel in between.
func probeNetstack(in *echoInputs, m metrics) error {
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		at := in.at[0][i%echoStream]
		g := netstack.EncodeDatagram(netstack.Datagram{SrcPort: 49152, DstPort: echoPort, Payload: in.pool[at:][:echoPayload]})
		f := netstack.EncodeFrame(netstack.Frame{Dst: echoServerAddr, Src: echoClientAddr, Type: 1, Payload: g})
		df, err := netstack.DecodeFrame(f)
		if err != nil {
			return err
		}
		if _, err := netstack.DecodeDatagram(df.Payload); err != nil {
			return err
		}
	}
	m.set("netstack.codec.ns_per_datagram", "ns", float64(time.Since(t0))/n)

	a, b := &wire{addr: echoClientAddr}, &wire{addr: echoServerAddr}
	a.peer, b.peer = b, a
	client, server := netstack.NewStack(a), netstack.NewStack(b)
	srv, err := server.Bind(echoPort)
	if err != nil {
		return err
	}
	cli, err := client.Bind(0)
	if err != nil {
		return err
	}
	go func() {
		for {
			r, err := srv.Recv()
			if err != nil {
				return // closed
			}
			_ = srv.SendTo(r.From, r.FromPort, r.Payload) // a lost echo fails the client's compare
		}
	}()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		at := in.at[0][i%echoStream]
		if err := cli.SendTo(echoServerAddr, echoPort, in.pool[at:][:echoPayload]); err != nil {
			return err
		}
		r, err := cli.Recv()
		if err != nil {
			return err
		}
		if !bytes.Equal(r.Payload, in.pool[at:][:echoPayload]) {
			return invalidf("netstack probe: echo differs from request")
		}
	}
	m.set("netstack.rtt_us", "us", float64(time.Since(t0))/1e3/n)
	return srv.Close()
}
