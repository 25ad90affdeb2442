package diff

import (
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/verified-os/vnros/internal/core"
	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/sys"
)

// diffNICAddr is the machine address every differential kernel boots
// with (each on its own private switch), so self-addressed datagrams
// loop back identically everywhere.
const diffNICAddr = 0xD1F

// invalidFD is the slot sentinel for "never opened / closed": large
// enough that every kernel rejects it with EBADF, making the error path
// itself a diffed observation.
const invalidFD = fs.FD(1 << 20)

// Replay is one kernel's full observation of a trace: the per-op log,
// the final observable state (file tree + contents, fd offsets, port
// table), the durable subset (files only — what must survive a crash
// given the trace's trailing Sync), and the files a crash-recovered
// reboot of the kernel reads back.
type Replay struct {
	Log       []string
	State     []string
	Files     []string
	Recovered []string
}

// kernelConfig builds the boot config for one differential kernel:
// WAL on (so Sync means the same thing on the monolith and the sharded
// kernel, and so the disk is crash-recoverable), private switch, fixed
// NIC address.
func kernelConfig(shards int) core.Config {
	return core.Config{
		Cores:    2,
		MemBytes: 256 << 20,
		Shards:   shards,
		WAL:      true,
		NICAddr:  diffNICAddr,
		Network:  netstack.NewNetwork(),
	}
}

// Observe replays the trace on a kernel with the given shard count,
// then crashes it (no shutdown — the disk is simply frozen) and reboots
// it through WAL recovery: the durable file state must survive
// byte-for-byte.
func Observe(shards int, tr Trace) (*Replay, error) {
	rep, s, err := run(kernelConfig(shards), tr)
	if err != nil {
		return nil, err
	}
	if rep.Recovered, err = recoverFiles(s, shards); err != nil {
		return nil, fmt.Errorf("trace seed %d: %w", tr.Seed, err)
	}
	if err := DiffLines("live", rep.Files, "recovered", rep.Recovered); err != nil {
		return nil, fmt.Errorf("trace seed %d: synced state lost or ghosted across a crash: %w", tr.Seed, err)
	}
	return rep, nil
}

// run boots a kernel, replays the trace, captures the observable state,
// and runs the kernel's own self-checks (contract, replica agreement,
// structural invariants). The returned System is still live — the
// caller may "crash" it by booting a recovery kernel from its disk.
func run(cfg core.Config, tr Trace) (*Replay, *core.System, error) {
	s, err := core.Boot(cfg)
	if err != nil {
		return nil, nil, err
	}
	initSys, err := s.Init()
	if err != nil {
		return nil, nil, err
	}
	rep := &Replay{}
	st := &replayState{
		fds:   make([]fs.FD, tr.FDSlots),
		socks: make([]sys.SockID, tr.SkSlots),
		ports: make([]sys.Port, tr.SkSlots),
	}
	for i := range st.fds {
		st.fds[i] = invalidFD
	}
	for i, op := range tr.Ops {
		if err := replayOp(s, initSys, st, rep, op); err != nil {
			return nil, nil, fmt.Errorf("trace seed %d op %d (%s): %w", tr.Seed, i, op.Render(), err)
		}
	}
	if err := captureState(s, initSys, st, tr, rep); err != nil {
		return nil, nil, fmt.Errorf("trace seed %d capture: %w", tr.Seed, err)
	}
	if err := initSys.ContractErr(); err != nil {
		return nil, nil, fmt.Errorf("trace seed %d: contract: %w", tr.Seed, err)
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		return nil, nil, fmt.Errorf("trace seed %d: replica agreement: %w", tr.Seed, err)
	}
	if err := s.CheckKernelInvariants(); err != nil {
		return nil, nil, fmt.Errorf("trace seed %d: kernel invariants: %w", tr.Seed, err)
	}
	return rep, s, nil
}

// recoverFiles "reboots" a crashed kernel from disk (WAL replay) and
// captures the durable file state.
func recoverFiles(crashed *core.System, shards int) ([]string, error) {
	cfg := kernelConfig(shards)
	cfg.RestoreFS = true
	cfg.BootDisk = crashed.BlockDev
	s, err := core.Boot(cfg)
	if err != nil {
		return nil, fmt.Errorf("recovery boot: %w", err)
	}
	initSys, err := s.Init()
	if err != nil {
		return nil, err
	}
	files, err := walkFiles(initSys)
	if err != nil {
		return nil, err
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		return nil, fmt.Errorf("recovered kernel replica agreement: %w", err)
	}
	if err := s.CheckKernelInvariants(); err != nil {
		return nil, fmt.Errorf("recovered kernel invariants: %w", err)
	}
	return files, nil
}

// replayState is the mutable slot file of one replay.
type replayState struct {
	fds   []fs.FD
	socks []sys.SockID
	ports []sys.Port // port each socket slot bound (valid while socks[i] != 0)
}

// replayOp executes one trace op against initSys, appending the
// observation to the log. Only harness errors (spawn plumbing) return a
// non-nil error; syscall errnos are observations, not failures.
func replayOp(s *core.System, initSys *sys.Sys, st *replayState, rep *Replay, op Op) error {
	if applyFileOp(initSys, st.fds, "", rep, op) {
		return nil
	}
	logf := rep.logger("")
	switch op.Kind {
	case OpSpawn:
		return replaySpawn(s, initSys, rep, op)
	case OpSockBind:
		id, e := initSys.SockBind(op.Port)
		if e == sys.EOK {
			st.socks[op.Slot] = id
			st.ports[op.Slot] = op.Port
		}
		logf("sockbind[%d] %d: ok=%v %v", op.Slot, op.Port, id != 0, e)
	case OpSockPing:
		// Self-addressed datagram: if the send is accepted, the slot's
		// socket owns the target port (sequential replay, socket still
		// open), so a blocking receive must observe exactly this payload.
		id := st.socks[op.Slot]
		n, e := initSys.SockSend(id, diffNICAddr, st.ports[op.Slot], op.Data)
		logf("sockping[%d] send %d: n=%d %v", op.Slot, len(op.Data), n, e)
		if e == sys.EOK {
			pay, from, port, re := initSys.SockRecvBlocking(id)
			logf("sockping[%d] recv: n=%d sum=%x from=%x:%d %v", op.Slot, len(pay), sum(pay), from, port, re)
		}
	case OpSockClose:
		e := initSys.SockClose(st.socks[op.Slot])
		st.socks[op.Slot] = 0
		logf("sockclose[%d]: %v", op.Slot, e)
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}

// logger returns a printf that appends one observation, prefixed, to
// the log.
func (rep *Replay) logger(prefix string) func(format string, args ...any) {
	return func(format string, args ...any) {
		rep.Log = append(rep.Log, prefix+fmt.Sprintf(format, args...))
	}
}

// applyFileOp executes one file op through sc on the fd slots fds,
// logging its observation under prefix. It reports false, doing
// nothing, for an op that is not a file op (spawn and socket ops).
func applyFileOp(sc *sys.Sys, fds []fs.FD, prefix string, rep *Replay, op Op) bool {
	logf := rep.logger(prefix)
	switch op.Kind {
	case OpOpen:
		fd, e := sc.Open(op.Path, op.Flags)
		if e == sys.EOK {
			fds[op.Slot] = fd
		}
		logf("open[%d] %s: fd=%d %v", op.Slot, op.Path, fd, e)
	case OpClose:
		e := sc.Close(fds[op.Slot])
		fds[op.Slot] = invalidFD
		logf("close[%d]: %v", op.Slot, e)
	case OpRead:
		buf := make([]byte, op.N)
		n, e := sc.Read(fds[op.Slot], buf)
		logf("read[%d] %d: n=%d sum=%x %v", op.Slot, op.N, n, sum(buf[:n]), e)
	case OpWrite:
		n, e := sc.Write(fds[op.Slot], op.Data)
		logf("write[%d] %d: n=%d %v", op.Slot, len(op.Data), n, e)
	case OpSeek:
		pos, e := sc.Seek(fds[op.Slot], op.Off, op.Whence)
		logf("seek[%d] %d,%d: pos=%d %v", op.Slot, op.Off, op.Whence, pos, e)
	case OpPread:
		buf := make([]byte, op.N)
		n, e := sc.Pread(fds[op.Slot], buf, uint64(op.Off))
		logf("pread[%d] %d@%d: n=%d sum=%x %v", op.Slot, op.N, op.Off, n, sum(buf[:n]), e)
	case OpTruncate:
		logf("truncate[%d] %d: %v", op.Slot, op.Off, sc.Truncate(fds[op.Slot], uint64(op.Off)))
	case OpMkdir:
		logf("mkdir %s: %v", op.Path, sc.Mkdir(op.Path))
	case OpUnlink:
		logf("unlink %s: %v", op.Path, sc.Unlink(op.Path))
	case OpRename:
		logf("rename %s %s: %v", op.Path, op.Path2, sc.Rename(op.Path, op.Path2))
	case OpLink:
		logf("link %s %s: %v", op.Path, op.Path2, sc.Link(op.Path, op.Path2))
	case OpRmdir:
		logf("rmdir %s: %v", op.Path, sc.Rmdir(op.Path))
	case OpStat:
		st, e := sc.Stat(op.Path)
		logf("stat %s: kind=%v size=%d nlink=%d %v", op.Path, st.Kind, st.Size, st.Nlink, e)
	case OpReadDir:
		ents, e := sc.ReadDir(op.Path)
		names := make([]string, len(ents))
		for i, ent := range ents {
			names[i] = ent.Name
		}
		logf("readdir %s: %v %v", op.Path, names, e)
	case OpSync:
		logf("sync: %v", sc.Sync())
	case OpBatch:
		replayBatch(sc, fds, logf, op.Ops)
	default:
		return false
	}
	return true
}

// replayBatch submits ops as one ring batch on the descriptors the
// slots hold now and logs every completion. A slot an entry opens or
// closes takes its new value only after the batch: no entry uses a
// descriptor opened in its own batch.
func replayBatch(sc *sys.Sys, fds []fs.FD, logf func(string, ...any), ops []Op) {
	b := sc.NewBatch(sys.SubmitOptions{})
	for _, op := range ops {
		b.Add(op.ringOp(fds))
	}
	var comps []sys.Completion
	err := b.Submit()
	if err == nil {
		comps, err = b.Wait()
	}
	logf("batch %d: %v", len(ops), err)
	for i, c := range comps {
		logf("  %d %s: %v val=%d sum=%x", i, sys.OpName(c.Op), c.Errno, c.Val, sum(c.Data))
		switch {
		case ops[i].Kind == OpClose:
			fds[ops[i].Slot] = invalidFD
		case ops[i].Kind == OpOpen && c.Errno == sys.EOK:
			fds[ops[i].Slot] = fs.FD(c.Val)
		}
	}
}

// ringOp is op as a batch entry on the descriptors fds holds.
func (op Op) ringOp(fds []fs.FD) sys.Op {
	switch op.Kind {
	case OpOpen:
		return sys.OpOpen(op.Path, op.Flags)
	case OpClose:
		return sys.OpClose(fds[op.Slot])
	case OpRead:
		return sys.OpRead(fds[op.Slot], op.N)
	case OpWrite:
		return sys.OpWrite(fds[op.Slot], op.Data)
	case OpSeek:
		return sys.OpSeek(fds[op.Slot], op.Off, op.Whence)
	case OpPread:
		return sys.OpPread(fds[op.Slot], op.N, uint64(op.Off))
	case OpTruncate:
		return sys.OpTruncate(fds[op.Slot], uint64(op.Off))
	case OpMkdir:
		return sys.OpMkdir(op.Path)
	case OpUnlink:
		return sys.OpUnlink(op.Path)
	case OpRename:
		return sys.OpRename(op.Path, op.Path2)
	case OpLink:
		return sys.OpLink(op.Path, op.Path2)
	case OpRmdir:
		return sys.OpRmdir(op.Path)
	}
	panic(fmt.Sprintf("diff: %s is not a batch entry", op.Kind))
}

// replaySpawn runs the child script in a spawned process (its own fd
// slots), waits for it, and reaps it — sequentially, so PIDs, exit
// codes, and all child observations are deterministic. The generator
// puts only file ops and batches in a child's script.
func replaySpawn(s *core.System, initSys *sys.Sys, rep *Replay, op Op) error {
	done := make(chan struct{})
	_, err := s.Run(initSys, "difftracechild", func(p *core.Process) int {
		defer close(done)
		cfds := make([]fs.FD, genFDSlots)
		for i := range cfds {
			cfds[i] = invalidFD
		}
		for _, c := range op.Ops {
			applyFileOp(p.Sys, cfds, "child ", rep, c)
		}
		return op.Code
	})
	if err != nil {
		return fmt.Errorf("spawn: %w", err)
	}
	<-done
	s.WaitAll()
	res, e := initSys.Wait()
	rep.logger("")("wait: pid=%d code=%d %v", res.PID, res.ExitCode, e)
	return nil
}

// captureState renders the final observable state: every fd slot's
// cursor, the full file tree with contents, and the port table.
func captureState(s *core.System, initSys *sys.Sys, st *replayState, tr Trace, rep *Replay) error {
	// Descriptor table: probe each slot's cursor with a no-op seek.
	for i, fd := range st.fds {
		pos, e := initSys.Seek(fd, 0, fs.SeekCur)
		rep.State = append(rep.State, fmt.Sprintf("fdslot %d: pos=%d %v", i, pos, e))
	}
	// Durable file tree.
	files, err := walkFiles(initSys)
	if err != nil {
		return err
	}
	rep.Files = files
	rep.State = append(rep.State, files...)
	// Port table: a probe bind tells bound (EADDRINUSE) from free (EOK).
	seen := map[sys.Port]bool{}
	for _, port := range tr.Ports {
		if seen[port] {
			continue
		}
		seen[port] = true
		id, e := initSys.SockBind(port)
		if e == sys.EOK {
			if ce := initSys.SockClose(id); ce != sys.EOK {
				return fmt.Errorf("port probe close %d: %v", port, ce)
			}
		}
		rep.State = append(rep.State, fmt.Sprintf("port %d: probe=%v", port, e))
	}
	return nil
}

// walkFiles renders the file tree rooted at "/" — path, kind, size,
// link count, and a content checksum per regular file — in sorted
// order. Inode numbers are deliberately excluded: allocation order is
// an implementation detail the spec does not fix across kernels.
func walkFiles(initSys *sys.Sys) ([]string, error) {
	var out []string
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, e := initSys.ReadDir(dir)
		if e != sys.EOK {
			return fmt.Errorf("readdir %s: %v", dir, e)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, ent := range ents {
			path := dir + "/" + ent.Name
			if dir == "/" {
				path = "/" + ent.Name
			}
			st, e := initSys.Stat(path)
			if e != sys.EOK {
				return fmt.Errorf("stat %s: %v", path, e)
			}
			if ent.Kind == fs.KindDir {
				out = append(out, fmt.Sprintf("dir  %s nlink=%d", path, st.Nlink))
				if err := walk(path); err != nil {
					return err
				}
				continue
			}
			ck, err := checksumFile(initSys, path, st.Size)
			if err != nil {
				return err
			}
			out = append(out, fmt.Sprintf("file %s size=%d nlink=%d sum=%x", path, st.Size, st.Nlink, ck))
		}
		return nil
	}
	if err := walk("/"); err != nil {
		return nil, err
	}
	return out, nil
}

// checksumFile reads a file's contents through a probe descriptor.
func checksumFile(initSys *sys.Sys, path string, size uint64) (uint64, error) {
	fd, e := initSys.Open(path, sys.ORdOnly)
	if e != sys.EOK {
		return 0, fmt.Errorf("probe open %s: %v", path, e)
	}
	defer initSys.Close(fd)
	h := fnv.New64a()
	buf := make([]byte, 4096)
	var got uint64
	for {
		n, e := initSys.Read(fd, buf)
		if e != sys.EOK {
			return 0, fmt.Errorf("probe read %s: %v", path, e)
		}
		if n == 0 {
			break
		}
		h.Write(buf[:n])
		got += n
	}
	if got != size {
		return 0, fmt.Errorf("probe read %s: %d bytes, stat says %d", path, got, size)
	}
	return h.Sum64(), nil
}

// sum is the content checksum used in per-op observations.
func sum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// DiffLines compares two observation renderings line by line and
// reports the first divergence loudly, with context for reproduction.
func DiffLines(aName string, a []string, bName string, b []string) error {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Errorf("divergence at line %d:\n  %s: %s\n  %s: %s",
				i, aName, a[i], bName, b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("observation lengths diverge: %s has %d lines, %s has %d",
			aName, len(a), bName, len(b))
	}
	return nil
}
