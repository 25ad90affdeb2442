// Package diff is the differential verification harness: it generates
// randomized syscall traces and replays each one against multiple
// implementations of the same kernel specification — the kernel matrix
// (shapes): the co-located single-NR kernel (Shards 0) and the kernel
// partitioned over 2 and 4 shards, each journaled and each rebooted
// from its crashed disk — then diffs every observable against Shards
// 0's: per-op results (ring batches completion by completion), the file
// tree and contents, the caller's descriptor table, the reaped process
// tree, the bound-port table, and the recovered files. This is the one
// place the same syscalls are replayed on several kernel shapes. Any
// divergence is a refinement violation caught end-to-end, converting
// the per-subsystem refinement VCs into one continuously fuzzed
// whole-system property (the separation-kernel survey's
// cross-implementation differential checking, applied to our own
// kernels).
//
// Traces are pure data: the generator consumes randomness, the replayer
// consumes none, so the same Trace replays bit-identically on every
// kernel. Every trace ends with a Sync, making the final file state
// durable — which is what licenses diffing a crash-recovered kernel
// against the live ones.
package diff

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/sys"
)

// OpKind is one trace operation's kind.
type OpKind int

// Trace op kinds. Socket pings pair a self-addressed send with a
// blocking receive so datagram delivery (interrupt-fed, asynchronous)
// never makes the observation timing-dependent.
const (
	OpOpen OpKind = iota
	OpClose
	OpRead
	OpWrite
	OpSeek
	OpPread
	OpTruncate
	OpMkdir
	OpUnlink
	OpRename
	OpLink
	OpRmdir
	OpStat
	OpReadDir
	OpSync
	OpBatch // submit Ops as one ring batch and wait for it
	OpSpawn // run Ops in a spawned process, exit Code, reap it
	OpSockBind
	OpSockPing // send to the slot's own bound port, then blocking-recv
	OpSockClose
)

var opNames = map[OpKind]string{
	OpOpen: "open", OpClose: "close", OpRead: "read", OpWrite: "write",
	OpSeek: "seek", OpPread: "pread", OpTruncate: "truncate",
	OpMkdir: "mkdir", OpUnlink: "unlink", OpRename: "rename",
	OpLink: "link", OpRmdir: "rmdir", OpStat: "stat", OpReadDir: "readdir",
	OpSync: "sync", OpBatch: "batch", OpSpawn: "spawn", OpSockBind: "sockbind",
	OpSockPing: "sockping", OpSockClose: "sockclose",
}

func (k OpKind) String() string { return opNames[k] }

// Op is one step of a trace. Slots are virtual registers: Open/SockBind
// store the returned handle in Slot, later ops use whatever the slot
// holds (a never-assigned slot holds an invalid handle, so the op's
// errno — EBADF — is itself part of the diffed observation).
type Op struct {
	Kind   OpKind
	Slot   int
	Path   string
	Path2  string
	Data   []byte
	N      uint64       // read/pread length
	Off    int64        // seek offset / pread offset / truncate size
	Whence int          // seek whence
	Flags  sys.OpenFlag // open flags
	Port   sys.Port     // sockbind port
	Code   int          // spawn: child exit code
	Ops    []Op         // batch: its entries; spawn: the child's script
}

// Trace is one generated syscall script plus the slot/port geometry the
// replayer and the state capture need.
type Trace struct {
	Seed    int64
	Ops     []Op
	FDSlots int
	SkSlots int
	Ports   []sys.Port // the port pool; the capture probes each
}

// Generation geometry: a handful of paths, fd slots, and ports so that
// collisions (EEXIST, EADDRINUSE, EBADF) happen often enough to diff
// the error paths too.
const (
	genFDSlots  = 5
	genSkSlots  = 3
	genDirs     = 2
	genFiles    = 4
	genBatchMax = 24
)

func genPorts() []sys.Port { return []sys.Port{7300, 7301, 7302} }

// Generate builds a randomized trace of about n ops from seed. The
// trace always ends with a Sync so its file state is durable.
func Generate(seed int64, n int) Trace {
	r := rand.New(rand.NewSource(seed))
	tr := Trace{Seed: seed, FDSlots: genFDSlots, SkSlots: genSkSlots, Ports: genPorts()}
	// A deterministic preamble so most ops land on existing objects: the
	// directories, and a file open in every slot but the last two.
	for d := 0; d < genDirs; d++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpMkdir, Path: dirPath(d)})
	}
	for slot := 0; slot < genFDSlots-2; slot++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpOpen, Slot: slot,
			Path: fmt.Sprintf("%s/f%d", dirPath(slot%genDirs), slot), Flags: sys.OCreate | sys.ORdWr})
	}
	tr.Ops = append(tr.Ops, genOps(r, n, true)...)
	tr.Ops = append(tr.Ops, Op{Kind: OpSync})
	return tr
}

func dirPath(d int) string { return fmt.Sprintf("/d%d", d) }

// anyDir is one of the preamble's directories or one of two that come
// and go.
func anyDir(r *rand.Rand) string { return dirPath(r.Intn(genDirs + 2)) }

// filePath is a file in one of the preamble's directories, or one time
// in eight in a directory that exists only while a namespace op has
// made it (ENOENT otherwise).
func filePath(r *rand.Rand) string {
	d := r.Intn(genDirs)
	if r.Intn(8) == 0 {
		d = genDirs
	}
	return fmt.Sprintf("%s/f%d", dirPath(d), r.Intn(genFiles))
}

func payload(r *rand.Rand, n int) []byte {
	p := make([]byte, 1+r.Intn(n))
	r.Read(p)
	return p
}

// genOps emits about n random ops; spawn and socket ops are only
// generated at the top level (children get a file-op script of their
// own).
func genOps(r *rand.Rand, n int, top bool) []Op {
	var ops []Op
	for i := 0; i < n; i++ {
		switch k := r.Intn(24); {
		case k < 17:
			ops = append(ops, genFileOp(r, r.Intn(genFDSlots)))
		case k == 17: // sync mid-trace
			ops = append(ops, Op{Kind: OpSync})
		case k == 18:
			ops = append(ops, Op{Kind: OpStat, Path: filePath(r)})
		case k == 19:
			ops = append(ops, Op{Kind: OpReadDir, Path: anyDir(r)})
		case k < 22:
			ops = append(ops, genBatch(r))
		case !top:
			ops = append(ops, genFileOp(r, r.Intn(genFDSlots)))
		case k == 22: // spawn a child with its own script
			ops = append(ops, Op{Kind: OpSpawn, Code: r.Intn(64),
				Ops: genOps(r, 3+r.Intn(6), false)})
		default: // socket ops
			slot := r.Intn(genSkSlots)
			switch r.Intn(3) {
			case 0:
				ports := genPorts()
				ops = append(ops, Op{Kind: OpSockBind, Slot: slot, Port: ports[r.Intn(len(ports))]})
			case 1:
				ops = append(ops, Op{Kind: OpSockPing, Slot: slot, Data: payload(r, 64)})
			default:
				ops = append(ops, Op{Kind: OpSockClose, Slot: slot})
			}
		}
	}
	return ops
}

// genFileOp draws one op a batch can carry; descriptor ops use slot.
// Opens are read-only or write-only one time in two, so EPERM entries
// land mid-run; a write is empty one time in eight; a seek's whence is
// invalid one time in four.
func genFileOp(r *rand.Rand, slot int) Op {
	switch k := r.Intn(17); {
	case k < 3:
		flags := []sys.OpenFlag{sys.ORdWr, sys.ORdWr, sys.ORdOnly, sys.OWrOnly}[r.Intn(4)]
		if r.Intn(4) != 0 {
			flags |= sys.OCreate
		}
		if r.Intn(3) == 0 && flags&sys.ORdOnly == 0 {
			flags |= sys.OTrunc
		}
		if r.Intn(4) == 0 {
			flags |= sys.OAppend
		}
		return Op{Kind: OpOpen, Slot: slot, Path: filePath(r), Flags: flags}
	case k < 7:
		data := payload(r, 600)
		if r.Intn(8) == 0 {
			data = data[:0]
		}
		return Op{Kind: OpWrite, Slot: slot, Data: data}
	case k < 10:
		return Op{Kind: OpRead, Slot: slot, N: uint64(1 + r.Intn(400))}
	case k < 12:
		return Op{Kind: OpSeek, Slot: slot, Off: int64(r.Intn(300)) - 100, Whence: r.Intn(4)}
	case k < 14:
		return Op{Kind: OpPread, Slot: slot, N: uint64(1 + r.Intn(300)), Off: int64(r.Intn(500))}
	case k == 14:
		return Op{Kind: OpClose, Slot: slot}
	case k == 15:
		return Op{Kind: OpTruncate, Slot: slot, Off: int64(r.Intn(400))}
	}
	switch r.Intn(6) { // namespace churn
	case 0:
		return Op{Kind: OpUnlink, Path: filePath(r)}
	case 1:
		return Op{Kind: OpRename, Path: filePath(r), Path2: filePath(r)}
	case 2:
		return Op{Kind: OpLink, Path: filePath(r), Path2: filePath(r)}
	case 3:
		return Op{Kind: OpRmdir, Path: anyDir(r)}
	default:
		return Op{Kind: OpMkdir, Path: anyDir(r)}
	}
}

// genBatch draws a batch of 1 to genBatchMax file ops. An entry
// usually stays on the previous entry's descriptor slot, so descriptor
// runs form, and sometimes moves, so they break.
func genBatch(r *rand.Rand) Op {
	ops := make([]Op, 1+r.Intn(genBatchMax))
	slot := r.Intn(genFDSlots)
	for i := range ops {
		if r.Intn(10) < 3 {
			slot = r.Intn(genFDSlots)
		}
		ops[i] = genFileOp(r, slot)
	}
	return Op{Kind: OpBatch, Ops: ops}
}

// Render prints a trace op compactly for divergence reports.
func (o Op) Render() string {
	switch o.Kind {
	case OpOpen:
		return fmt.Sprintf("open[%d] %s flags=%#x", o.Slot, o.Path, int(o.Flags))
	case OpBatch:
		return fmt.Sprintf("batch ops=%d", len(o.Ops))
	case OpSpawn:
		return fmt.Sprintf("spawn code=%d ops=%d", o.Code, len(o.Ops))
	case OpSockBind:
		return fmt.Sprintf("sockbind[%d] port=%d", o.Slot, o.Port)
	default:
		return fmt.Sprintf("%s[%d] path=%s n=%d off=%d", o.Kind, o.Slot, o.Path, o.N, o.Off)
	}
}
