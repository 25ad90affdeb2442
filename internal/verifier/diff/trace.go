// Package diff is the differential verification harness: it generates
// randomized syscall traces and replays each one against multiple
// implementations of the same kernel specification — the monolithic
// single-NR kernel, the sharded kernel, and their WAL-crash-recovered
// reboots — then diffs every observable: per-op results, the file tree
// and contents, the caller's descriptor table, the reaped process tree,
// and the bound-port table. Any divergence is a refinement violation
// caught end-to-end, converting the per-subsystem refinement VCs into
// one continuously fuzzed whole-system property (the separation-kernel
// survey's cross-implementation differential checking, applied to our
// own kernels).
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
	OpSync
	OpSpawn // run Child ops in a spawned process, exit Code, reap it
	OpSockBind
	OpSockPing // send to the slot's own bound port, then blocking-recv
	OpSockClose
)

var opNames = map[OpKind]string{
	OpOpen: "open", OpClose: "close", OpRead: "read", OpWrite: "write",
	OpSeek: "seek", OpPread: "pread", OpTruncate: "truncate",
	OpMkdir: "mkdir", OpUnlink: "unlink", OpRename: "rename",
	OpSync: "sync", OpSpawn: "spawn", OpSockBind: "sockbind",
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
	Child  []Op         // spawn: the child's script (no nested spawns)
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
	genFDSlots = 5
	genSkSlots = 3
	genDirs    = 2
	genFiles   = 6
)

func genPorts() []sys.Port { return []sys.Port{7300, 7301, 7302} }

// Generate builds a randomized trace of about n ops from seed. The
// trace always ends with a Sync so its file state is durable.
func Generate(seed int64, n int) Trace {
	r := rand.New(rand.NewSource(seed))
	tr := Trace{Seed: seed, FDSlots: genFDSlots, SkSlots: genSkSlots, Ports: genPorts()}
	// A deterministic preamble so most ops land on existing objects.
	for d := 0; d < genDirs; d++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpMkdir, Path: dirPath(d)})
	}
	tr.Ops = append(tr.Ops, genOps(r, n, true)...)
	tr.Ops = append(tr.Ops, Op{Kind: OpSync})
	return tr
}

func dirPath(d int) string { return fmt.Sprintf("/d%d", d) }

func filePath(r *rand.Rand) string {
	return fmt.Sprintf("%s/f%d", dirPath(r.Intn(genDirs)), r.Intn(genFiles))
}

func payload(r *rand.Rand, n int) []byte {
	p := make([]byte, 1+r.Intn(n))
	r.Read(p)
	return p
}

// genOps emits about n random ops; spawn is only allowed at the top
// level (children get a flat file-op script of their own).
func genOps(r *rand.Rand, n int, allowSpawn bool) []Op {
	var ops []Op
	for i := 0; i < n; i++ {
		switch k := r.Intn(20); {
		case k < 4: // open
			flags := sys.ORdWr
			if r.Intn(2) == 0 {
				flags |= sys.OCreate
			}
			if r.Intn(6) == 0 {
				flags |= sys.OTrunc
			}
			if r.Intn(8) == 0 {
				flags |= sys.OAppend
			}
			ops = append(ops, Op{Kind: OpOpen, Slot: r.Intn(genFDSlots), Path: filePath(r), Flags: flags})
		case k < 8: // write
			ops = append(ops, Op{Kind: OpWrite, Slot: r.Intn(genFDSlots), Data: payload(r, 600)})
		case k < 11: // read
			ops = append(ops, Op{Kind: OpRead, Slot: r.Intn(genFDSlots), N: uint64(1 + r.Intn(400))})
		case k < 13: // seek
			ops = append(ops, Op{Kind: OpSeek, Slot: r.Intn(genFDSlots),
				Off: int64(r.Intn(300)) - 100, Whence: r.Intn(3)})
		case k < 15: // pread
			ops = append(ops, Op{Kind: OpPread, Slot: r.Intn(genFDSlots),
				N: uint64(1 + r.Intn(300)), Off: int64(r.Intn(500))})
		case k == 15: // close
			ops = append(ops, Op{Kind: OpClose, Slot: r.Intn(genFDSlots)})
		case k == 16: // namespace churn
			switch r.Intn(4) {
			case 0:
				ops = append(ops, Op{Kind: OpTruncate, Slot: r.Intn(genFDSlots), Off: int64(r.Intn(400))})
			case 1:
				ops = append(ops, Op{Kind: OpUnlink, Path: filePath(r)})
			case 2:
				ops = append(ops, Op{Kind: OpRename, Path: filePath(r), Path2: filePath(r)})
			default:
				ops = append(ops, Op{Kind: OpMkdir, Path: fmt.Sprintf("/d%d", r.Intn(genDirs+2))})
			}
		case k == 17: // sync mid-trace
			ops = append(ops, Op{Kind: OpSync})
		case k == 18 && allowSpawn: // spawn a child with its own script
			ops = append(ops, Op{Kind: OpSpawn, Code: r.Intn(64),
				Child: genOps(r, 3+r.Intn(6), false)})
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

// Render prints a trace op compactly for divergence reports.
func (o Op) Render() string {
	switch o.Kind {
	case OpOpen:
		return fmt.Sprintf("open[%d] %s flags=%#x", o.Slot, o.Path, int(o.Flags))
	case OpSpawn:
		return fmt.Sprintf("spawn code=%d ops=%d", o.Code, len(o.Child))
	case OpSockBind:
		return fmt.Sprintf("sockbind[%d] port=%d", o.Slot, o.Port)
	default:
		return fmt.Sprintf("%s[%d] path=%s n=%d off=%d", o.Kind, o.Slot, o.Path, o.N, o.Off)
	}
}
