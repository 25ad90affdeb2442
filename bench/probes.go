package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/sched"
	"github.com/verified-os/vnros/internal/sys"
)

// probeOps is how many ops of the workload's own seeded stream the
// layer probes replay.
const probeOps = 20000

// streamProbe is what the layer probes need to know about a syscall
// workload: how it drives a *sys.Sys, and which optional layers its
// configuration has.
type streamProbe struct {
	opsPer       uint64
	spansPerStep int
	populate     func(c *client) error
	step         func(*client) int
	wal          bool
	caches       int
	contract     bool // the workload runs contract-checked
	boot         func() (*vnros.System, error)
	// onStack, if set, adjusts a populated client that drives the probe
	// stack instead of a booted system.
	onStack func(c *client)
}

// populateOnStack populates a probe-stack client.
func (sp streamProbe) populateOnStack(c *client) error {
	if err := sp.populate(c); err != nil {
		return fmt.Errorf("probe stack populate: %w", err)
	}
	if sp.onStack != nil {
		sp.onStack(c)
	}
	return nil
}

func (sp streamProbe) steps() int { return probeOps / int(sp.opsPer) }

// newProbeClient returns a client over h that issues the workload's
// stream from its start, as client 0.
func (sp streamProbe) newProbeClient(id int, h *vnros.Sys) *client {
	return &client{id: id, sys: h, opsPer: sp.opsPer, step: sp.step,
		cmd: make(chan stint), done: make(chan struct{})}
}

// probeSyscallLayers runs every probe of the syscall path for one
// workload and returns the probe stack's tracer.
func probeSyscallLayers(sp streamProbe, m metrics) (*tracer, error) {
	stack, c, layersNs, err := replayOnStack(sp, m)
	if err != nil {
		return nil, err
	}
	probeCodec(stack.rec, m)
	probeFS(stack.rec, m)
	if sp.contract {
		probeView(stack, c, m)
	}
	if err := probeFacade(sp, layersNs, m); err != nil {
		return nil, err
	}
	if err := probeCombiner(sp, m); err != nil {
		return nil, err
	}
	probeShardedNR(m)
	return stack.t, nil
}

// replayOnStack populates a fresh probe stack and replays the first
// probeOps ops of the stream on it with every shim recording. The
// layers' self times come out of the spans; their sum per request is
// returned for core.self_ns_per_op.
func replayOnStack(sp streamProbe, m metrics) (*probeStack, *client, float64, error) {
	stack, err := newProbeStack(sp.wal, sp.caches)
	if err != nil {
		return nil, nil, 0, err
	}
	h, err := stack.spawn("probe")
	if err != nil {
		return nil, nil, 0, err
	}
	stack.rec = &recorder{}
	c := sp.newProbeClient(0, h)
	if err := sp.populateOnStack(c); err != nil {
		return nil, nil, 0, err
	}
	var writes0, bytes0, user0, flushes0 uint64
	if stack.dev != nil {
		writes0, bytes0, user0, flushes0 = stack.dev.writes, stack.dev.bytesWritten, stack.userBytes, stack.flushes.Load()
	}
	stack.rec.timed = true
	steps := sp.steps()
	t := newTracer(0, sp.spansPerStep*steps+1024)
	t.src = "probe"
	stack.t, c.tr = t, t
	failed := 0
	for i := 0; i < steps; i++ {
		failed += sp.step(c)
	}
	stack.t, c.tr = nil, nil
	if failed > 0 {
		return nil, nil, 0, invalidf("%d ops failed on the probe stack", failed)
	}

	lt := t.selfTimes()
	per := func(name string, total bool, div uint64) float64 {
		l := lt[name]
		if l == nil || div == 0 {
			return 0
		}
		if total {
			return float64(l.total) / float64(div)
		}
		return float64(l.self) / float64(div)
	}
	count := func(name string) uint64 {
		if l := lt[name]; l != nil {
			return l.count
		}
		return 0
	}
	// sys.Kernel's own time: its span minus the journal sink it calls.
	kernelNs := per("sys.kernel", true, 1) - per("wal.record", true, 1)
	m.set("sys.kernel.ns_per_op", "ns", kernelNs/float64(count("sys.kernel")))
	if n := count("nr.execute"); n > 0 {
		m.set("nr.execute.ns_per_op", "ns", per("nr.execute", false, n))
	}
	if n := count("nr.read"); n > 0 {
		m.set("nr.read.ns_per_op", "ns", per("nr.read", false, n))
	}
	if n := count("nr.batch"); n > 0 {
		m.set("nr.batch.ns_per_op", "ns", per("nr.batch", false, n*(sp.opsPer-1))) // every op of a batch but its sync
	}
	if stack.dev != nil {
		m.set("wal.record.ns_per_mutation", "ns", per("wal.record", true, count("wal.record")))
		m.set("wal.flush.ns_per_round", "ns", per("wal.flush", true, count("wal.flush")))
		rounds := stack.flushes.Load() - flushes0
		m.set("dev.writes_per_round", "count", float64(stack.dev.writes-writes0)/float64(rounds))
		m.set("dev.bytes_per_user_byte", "ratio", float64(stack.dev.bytesWritten-bytes0)/float64(stack.userBytes-user0))
		t0 := time.Now()
		if err := stack.journal.Checkpoint(stack.kernel.FS()); err != nil {
			return nil, nil, 0, fmt.Errorf("probe checkpoint: %w", err)
		}
		m.set("wal.checkpoint.ms", "ms", float64(time.Since(t0))/1e6)
	}

	// What the probed layers cost one request:
	// client-side marshalling (the sys.* call spans' self time), the
	// handler's decode and encode, NR's own time, and the kernel.
	var layers float64
	for name, l := range lt {
		switch {
		case len(name) > 4 && name[:4] == "sys." && name != "sys.kernel" && name != "sys.boundary":
			layers += float64(l.self) // sys.<Call>, sys.codec.decode, sys.codec.encode
		case name == "nr.execute" || name == "nr.read" || name == "nr.batch":
			layers += float64(l.self)
		}
	}
	layers += kernelNs
	return stack, c, layers / float64(steps), nil
}

// probeCodec times the wire format alone on the recorded crossings:
// client encode, handler decode, handler encode, client decode.
func probeCodec(rec *recorder, m metrics) {
	zeros := make([]byte, 1<<20)
	var ops uint64
	run := func() {
		for i := range rec.samples {
			s := &rec.samples[i]
			if !s.timed {
				continue
			}
			switch {
			case s.ops != nil:
				frame, payload := sys.EncodeBatch(s.ops[0].PID, s.ops)
				dec, _ := sys.DecodeBatch(frame, payload)
				ret, out := sys.EncodeBatchResp(s.comps, sys.EOK)
				_, _, _ = sys.DecodeBatchResp(ret, out)
				ops += uint64(len(dec))
			case s.write != nil:
				frame, payload := sys.EncodeWrite(*s.write)
				_, _ = sys.DecodeWrite(frame, payload)
				r := s.resp
				r.Data = zeros[:s.data]
				ret, out := sys.EncodeResp(r)
				_, _ = sys.DecodeResp(ret, out)
				ops++
			default:
				frame, payload := sys.EncodeRead(*s.read)
				_, _ = sys.DecodeRead(frame, payload)
				r := s.resp
				r.Data = zeros[:s.data]
				ret, out := sys.EncodeResp(r)
				_, _ = sys.DecodeResp(ret, out)
				ops++
			}
		}
	}
	run() // warm
	ops = 0
	d, mallocs, bytes := memDelta(run)
	// Per op that crossed: a scalar crossing is one, a batch all its ops.
	div := float64(ops)
	m.set("sys.codec.ns_per_op", "ns", float64(d)/div)
	m.set("sys.codec.allocs_per_op", "count", float64(mallocs)/div)
	m.set("sys.codec.bytes_per_op", "B", float64(bytes)/div)

	// marshal alone: the register shim plus one length-prefixed field
	// of the crossing's payload size, packed and unpacked.
	var packs uint64
	buf := make([]byte, 0, 1<<16)
	d, _, _ = memDelta(func() {
		for i := range rec.samples {
			s := &rec.samples[i]
			if !s.timed {
				continue
			}
			n := s.data
			if s.write != nil {
				n += len(s.write.Data)
			}
			for _, op := range s.ops {
				n += len(op.Data)
			}
			f, _ := marshal.PackArgs(7, 1, 2, 3, 4)
			_, _ = marshal.UnpackArgs(f, 4)
			e := marshal.NewEncoder(buf)
			e.U64(uint64(n)).BytesField(zeros[:n])
			dec := marshal.NewDecoder(e.Bytes())
			dec.U64()
			dec.BytesFieldRef()
			packs++
		}
	})
	m.set("marshal.pack.ns_per_op", "ns", float64(d)/float64(packs))
}

// probeFS replays the recorded crossings' filesystem calls straight
// onto a fresh fs.FS and descriptor table: the populate part untimed,
// then the stream's part timed. Descriptor numbers are deterministic,
// so the recorded ones stay valid.
func probeFS(rec *recorder, m metrics) {
	f := fs.New()
	tables := map[uint64]*fs.FDTable{}
	table := func(pid uint64) *fs.FDTable {
		t := tables[pid]
		if t == nil {
			t = fs.NewFDTable(f)
			tables[pid] = t
		}
		return t
	}
	buf := make([]byte, 1<<20)
	var calls uint64
	apply := func(op *sys.WriteOp) {
		t := table(uint64(op.PID))
		switch op.Num {
		case sys.NumOpen:
			_, _ = t.Open(op.Path, int(op.Flags))
		case sys.NumClose:
			_ = t.Close(op.FD)
		case sys.NumSeek:
			_, _ = t.Seek(op.FD, op.Off, op.Whence)
		case sys.NumRead:
			_ = t.Lock(op.FD)
			_, _ = t.Read(op.FD, buf[:op.Len])
			_ = t.Unlock(op.FD)
		case sys.NumWrite:
			_ = t.Lock(op.FD)
			_, _ = t.Write(op.FD, op.Data)
			_ = t.Unlock(op.FD)
		default:
			return
		}
		calls++
	}
	for i := range rec.samples {
		if s := &rec.samples[i]; !s.timed && s.write != nil {
			apply(s.write)
		}
	}
	calls = 0
	t0 := time.Now()
	for i := range rec.samples {
		s := &rec.samples[i]
		if !s.timed {
			continue
		}
		switch {
		case s.write != nil:
			apply(s.write)
		case s.read != nil && s.read.Num == sys.NumStat:
			_, _ = f.StatPath(s.read.Path)
			calls++
		case s.read != nil && s.read.Num == sys.NumPread:
			if of, err := table(uint64(s.read.PID)).Get(s.read.FD); err == nil {
				_, _ = f.ReadAt(of.Ino, s.read.Off, buf[:s.read.Len])
				calls++
			}
		}
		for k := range s.ops {
			apply(&s.ops[k])
		}
	}
	if calls > 0 {
		m.set("fs.ns_per_op", "ns", float64(time.Since(t0))/float64(calls))
	}
}

// probeView times the §3 view() abstraction at the workload's open-file
// state: what every checked syscall pays twice.
func probeView(stack *probeStack, c *client, m metrics) {
	const calls = 200
	pid := c.sys.PID()
	d, _, bytes := memDelta(func() {
		for i := 0; i < calls; i++ {
			stack.kernel.ViewFDs(pid)
		}
	})
	m.set("fs.view.ns_per_call", "ns", float64(d)/calls)
	m.set("fs.view.bytes_per_call", "B", float64(bytes)/calls)
}

// facadeRun boots the workload's real configuration and drives one
// client through the first probeOps ops of the stream, contract-checked
// (a System.Run process) or not (a RawSysOn handle).
func facadeRun(sp streamProbe, contract bool) (phaseResult, error) {
	var r phaseResult
	s, err := sp.boot()
	if err != nil {
		return r, err
	}
	initSys, err := s.Init()
	if err != nil {
		return r, err
	}
	cs := []*client{sp.newProbeClient(0, nil)}
	if contract {
		if err := runProcesses(s, initSys, cs, "probe", sp.populate); err != nil {
			return r, err
		}
	} else {
		pid, e := initSys.Spawn("probe")
		if e != vnros.EOK {
			return r, fmt.Errorf("probe spawn: %v", e)
		}
		if cs[0].sys, err = s.RawSysOn(pid, 0); err != nil {
			return r, err
		}
		if err := sp.populate(cs[0]); err != nil {
			return r, err
		}
		go cs[0].serve()
	}
	r = runPhase(cs, time.Minute, sp.steps(), sp.steps()+1, false)
	retire(cs)
	s.WaitAll()
	if r.failed > 0 {
		return r, invalidf("%d ops failed in the facade probe", r.failed)
	}
	return r, checkSystem(s, cs[0].sys, initSys)
}

// probeFacade measures what the contract checker costs (same stream,
// checked handle against raw handle) and what is left of a raw
// request once the probed layers are subtracted: core's own routing
// and shard-protocol glue.
func probeFacade(sp streamProbe, layersNs float64, m metrics) error {
	raw, err := facadeRun(sp, false)
	if err != nil {
		return err
	}
	// Means on both sides: the layers' self times are means over the
	// replayed requests, so the raw handle's cost per request is too.
	m.set("core.self_ns_per_op", "ns", float64(raw.elapsed)/float64(sp.steps())-layersNs)
	if !sp.contract {
		return nil
	}
	checked, err := facadeRun(sp, true)
	if err != nil {
		return err
	}
	m.set("sys.contract.overhead_ratio", "ratio", checked.elapsed.Seconds()/raw.elapsed.Seconds())
	m.set("sys.contract.bytes_per_op", "B", checked.bytesOp-raw.bytesOp)
	return nil
}

// probeCombiner replays both clients' streams at once on one fresh
// probe stack and reads the flat combiner's batching off the replica.
func probeCombiner(sp streamProbe, m metrics) error {
	stack, err := newProbeStack(sp.wal, sp.caches)
	if err != nil {
		return err
	}
	cs := make([]*client, numClients)
	for i := range cs {
		h, err := stack.spawn(fmt.Sprintf("probe%d", i))
		if err != nil {
			return err
		}
		cs[i] = sp.newProbeClient(i, h)
		if err := sp.populateOnStack(cs[i]); err != nil {
			return err
		}
	}
	ops0, batches0 := stack.nr.Replica(0).CombinerStats()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; i < sp.steps(); i++ {
				failed.Add(int64(sp.step(c)))
			}
		}(c)
	}
	wg.Wait()
	if failed.Load() > 0 {
		return invalidf("%d ops failed in the combiner probe", failed.Load())
	}
	ops, batches := stack.nr.Replica(0).CombinerStats()
	if batches > batches0 {
		m.set("nr.combiner.ops_per_batch", "count", float64(ops-ops0)/float64(batches-batches0))
	}
	return nil
}

// noop is the data structure NR is measured over by itself.
type noop struct{}

func (noop) DispatchRead(uint64) uint64  { return 0 }
func (noop) DispatchWrite(uint64) uint64 { return 0 }

// probeShardedNR times Execute on a two-shard NR group over a no-op
// data structure from two threads: both on one replica, and one on
// each of two replicas.
func probeShardedNR(m metrics) {
	const perThread = 100_000
	run := func(replicas int) float64 {
		g := nr.NewSharded[uint64, uint64, uint64](2, nr.Options{Replicas: replicas},
			func() nr.DataStructure[uint64, uint64, uint64] { return noop{} })
		var wg sync.WaitGroup
		t0 := time.Now()
		for th := 0; th < numClients; th++ {
			ctx, err := g.Register(th % replicas)
			if err != nil {
				return 0
			}
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				for i := 0; i < perThread; i++ {
					ctx.Execute(uint64(i+th), uint64(i))
				}
			}(th)
		}
		wg.Wait()
		return float64(time.Since(t0)) / perThread
	}
	m.set("nr.sharded.execute.ns_per_op", "ns", run(1))
	m.set("nr.sharded.execute.2rep.ns_per_op", "ns", run(2))
}

// probeWaitQueue times the sched.WaitQueue hand-off both doorbells (CQ
// and socket) are built on: two goroutines pass a turn back and forth
// with the prepare / re-check / wait discipline.
func probeWaitQueue(m metrics) {
	const rounds = 20000
	qa, qb := sched.NewWaitQueue(), sched.NewWaitQueue()
	var turn atomic.Int32
	await := func(q *sched.WaitQueue, want int32) {
		for {
			ticket := q.Prepare()
			if turn.Load() == want {
				return
			}
			q.Wait(ticket)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			await(qb, 1)
			turn.Store(0)
			qa.Wake()
		}
	}()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		turn.Store(1)
		qb.Wake()
		await(qa, 0)
	}
	<-done
	m.set("sched.waitqueue.wake_us", "us", float64(time.Since(t0))/1e3/(2*rounds))
}

// probeObsOverhead reruns the untraced segment with the kernel's own
// statistics enabled; the ROADMAP budget for the ratio is 1.05.
func probeObsOverhead(inst *instance, tp tracedPhases, m metrics) {
	obs.Reset()
	obs.Enable()
	on := runPhase(inst.clients, tp.window/3, traceSamples, traceSamples+1, false)
	obs.Disable()
	m.set("obs.enable_overhead_ratio", "ratio", tp.untraced.opsPerS/on.opsPerS)
}

// perLayerNames is every per-layer metric the benchmark can report, in
// report order, with its unit. A workload reports the ones whose layer
// it exercises; BENCHMARK.json lists them all.
var perLayerNames = []struct{ name, unit string }{
	{"sys.codec.ns_per_op", "ns"},
	{"sys.codec.allocs_per_op", "count"},
	{"sys.codec.bytes_per_op", "B"},
	{"marshal.pack.ns_per_op", "ns"},
	{"sys.kernel.ns_per_op", "ns"},
	{"sys.kernel.mmap_pair_ns", "ns"},
	{"fs.ns_per_op", "ns"},
	{"fs.view.ns_per_call", "ns"},
	{"fs.view.bytes_per_call", "B"},
	{"sys.contract.overhead_ratio", "ratio"},
	{"sys.contract.bytes_per_op", "B"},
	{"nr.execute.ns_per_op", "ns"},
	{"nr.batch.ns_per_op", "ns"},
	{"nr.read.ns_per_op", "ns"},
	{"nr.combiner.ops_per_batch", "count"},
	{"nr.sharded.execute.ns_per_op", "ns"},
	{"nr.sharded.execute.2rep.ns_per_op", "ns"},
	{"sys.ring.ns_per_op", "ns"},
	{"sys.ring.speedup_vs_percall", "ratio"},
	{"sched.waitqueue.wake_us", "us"},
	{"wal.record.ns_per_mutation", "ns"},
	{"wal.flush.ns_per_round", "ns"},
	{"wal.checkpoint.ms", "ms"},
	{"walshard.commit.ns_per_round", "ns"},
	{"walshard.checkpoint.count", "count"},
	{"walshard.recover.ms", "ms"},
	{"dev.writes_per_round", "count"},
	{"dev.bytes_per_user_byte", "ratio"},
	{"pcache.hit.ns_per_read", "ns"},
	{"pcache.miss.ns_per_read", "ns"},
	{"pcache.hit_ratio", "ratio"},
	{"pcache.resident_hit_ratio", "ratio"},
	{"pcache.evictions", "count"},
	{"pcache.invalidate.ns_per_call", "ns"},
	{"core.pcache.resident_pages", "count"},
	{"netstack.codec.ns_per_datagram", "ns"},
	{"netstack.rtt_us", "us"},
	{"verifier.serial_ms", "ms"},
	{"verifier.max_vc_ms", "ms"},
	{"verifier.parallel_efficiency", "ratio"},
	{"verifier.vcs", "count"},
	{"core.op.read.p50_us", "us"}, {"core.op.read.p99_us", "us"},
	{"core.op.write.p50_us", "us"}, {"core.op.write.p99_us", "us"},
	{"core.op.stat.p50_us", "us"}, {"core.op.stat.p99_us", "us"},
	{"core.op.open_close.p50_us", "us"}, {"core.op.open_close.p99_us", "us"},
	{"core.op.mmap_pair.p50_us", "us"}, {"core.op.mmap_pair.p99_us", "us"},
	{"core.op.pread.p50_us", "us"}, {"core.op.pread.p99_us", "us"},
	{"core.op.batch_sync.p50_us", "us"}, {"core.op.batch_sync.p99_us", "us"},
	{"core.op.echo_rtt.p50_us", "us"}, {"core.op.echo_rtt.p99_us", "us"},
	{"core.self_ns_per_op", "ns"},
	{"obs.enable_overhead_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"recovery_ms", "ms"},
}
