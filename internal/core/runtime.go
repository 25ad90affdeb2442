package core

import (
	"fmt"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/relwork"
	"github.com/verified-os/vnros/internal/sys"
)

// Process is a running user program's handle: its Sys syscall interface
// plus identity. User programs are Go functions — the §3 execution
// model's pragmatic stance ("take a systems programming language and
// assume the OS's abstract model of CPU execution and memory matches
// the language's semantics") applied to Go instead of Rust.
type Process struct {
	Sys  *sys.Sys
	PID  proc.PID
	Core int
	sys  *System
}

// Program is a user program body; its return value is the exit code.
type Program func(p *Process) int

// pickCore is round-robin process placement: the next core in turn.
func (s *System) pickCore() int {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	core := s.nextCore % s.cfg.Cores
	s.nextCore++
	return core
}

// newHandler allocates a syscall handler pinned to core, registering an
// NR thread context on that core's replica of every shard of each group.
func (s *System) newHandler(core int) (*handler, error) {
	rep := s.replicaOf(core)
	procCtx, err := s.procNR.Register(rep)
	if err != nil {
		return nil, err
	}
	// Co-located, procNR and fsNR are one group and a thread registers on
	// it once; partitioned, the fs group's shards need their own contexts.
	fsCtx := procCtx
	if s.sharded() {
		if fsCtx, err = s.fsNR.Register(rep); err != nil {
			procCtx.Deregister()
			return nil, err
		}
	}
	return &handler{s: s, core: core, procCtx: procCtx, fsCtx: fsCtx}, nil
}

// RawSysOn returns an uncontracted syscall handle for pid whose handler
// is pinned to the given core — benchmark and tooling support for
// explicit NUMA placement. The handle's NR contexts register on
// replicaOf(core), exactly as if the process ran there, and bypass the
// per-descriptor contract checker so each call is one syscall and
// nothing else. Round-robin placement (Run, Init) is not perturbed.
func (s *System) RawSysOn(pid proc.PID, core int) (*sys.Sys, error) {
	h, err := s.pinnedHandler(core)
	if err != nil {
		return nil, err
	}
	return sys.NewSys(pid, h), nil
}

// pinnedHandler is RawSysOn's kernel half: a handler on exactly the core
// asked for.
func (s *System) pinnedHandler(core int) (*handler, error) {
	if core < 0 || core >= s.cfg.Cores {
		return nil, fmt.Errorf("core %d out of range [0,%d)", core, s.cfg.Cores)
	}
	return s.newHandler(core)
}

// Init returns a contract-checked Sys handle for the init process (for
// setup work and tests).
func (s *System) Init() (*sys.Sys, error) {
	h, err := s.newHandler(s.pickCore())
	if err != nil {
		return nil, err
	}
	sh := sys.NewSys(proc.InitPID, h)
	sh.EnableContract()
	return sh, nil
}

// Run spawns a process as a child of parent and executes prog in its
// own goroutine ("core"). The returned Process is live immediately; use
// parent.Wait to reap it.
func (s *System) Run(parent *sys.Sys, name string, prog Program) (*Process, error) {
	pid, e := parent.Spawn(name)
	if e != sys.EOK {
		return nil, fmt.Errorf("core: spawn %q: %v", name, e)
	}
	h, err := s.newHandler(s.pickCore())
	if err != nil {
		return nil, err
	}
	ps := sys.NewSys(pid, h)
	ps.EnableContract()
	p := &Process{Sys: ps, PID: pid, Core: h.core, sys: s}
	s.liveProcs.Add(1)
	go func() {
		defer s.liveProcs.Done()
		code := prog(p)
		// Exit is idempotent-ish: if the program already exited (or was
		// killed), the errno is EPERM and ignored.
		_ = ps.Exit(code)
	}()
	return p, nil
}

// WaitAll blocks until every program goroutine has returned (they may
// still be zombies awaiting reaping).
func (s *System) WaitAll() { s.liveProcs.Wait() }

// Printf writes to the simulated serial console.
func (s *System) Printf(format string, args ...any) {
	fmt.Fprintf(s.Console, format, args...)
}

// ConsoleOutput returns everything printed to the console.
func (s *System) ConsoleOutput() string { return s.Machine.Serial.Output() }

// SaveFS checkpoints the filesystem to the disk. On a journaled system
// every shard is checkpointed in one coordinator critical section (a
// journalRound, like Sync): commit pending records as a round, then
// compact each shard's journal into its snapshot slots. Journal-less, it
// is the same full snapshot a Sync takes.
func (s *System) SaveFS() error {
	if s.walGroup == nil {
		return s.snapshotFS()
	}
	return s.journalRound(s.walGroup.CheckpointAll)
}

// CheckReplicaAgreement syncs every kernel replica and verifies the
// composed system's consistency obligation: within each shard, every
// replica agrees (the per-shard NR requirement); across the filesystem
// group, every shard holds the same namespace (the broadcast-order
// requirement) while file contents live only with their owners.
func (s *System) CheckReplicaAgreement() error {
	n := s.NumShards()
	for i := 0; i < n; i++ {
		var fss []*fs.FS
		var procCounts []int
		for r := 0; r < s.NumReplicas(); r++ {
			s.InspectProcShard(i, r, func(k *sys.Kernel) {
				procCounts = append(procCounts, k.Procs().Len())
			})
			s.InspectFsShard(i, r, func(k *sys.Kernel) {
				fss = append(fss, k.FS())
			})
		}
		for r := 1; r < len(fss); r++ {
			if !fs.Equal(fss[0], fss[r]) {
				return fmt.Errorf("core: fs shard %d replica %d diverged from replica 0", i, r)
			}
			if procCounts[r] != procCounts[0] {
				return fmt.Errorf("core: proc shard %d replica %d has %d processes, replica 0 has %d",
					i, r, procCounts[r], procCounts[0])
			}
		}
	}
	// Cross-shard: the replicated namespace must be identical on every
	// filesystem shard.
	var nss []*fs.FS
	for i := 0; i < n; i++ {
		s.InspectFsShard(i, 0, func(k *sys.Kernel) { nss = append(nss, k.FS()) })
	}
	for i := 1; i < n; i++ {
		if !fs.NamespaceEqual(nss[0], nss[i]) {
			return fmt.Errorf("core: fs shard %d namespace diverged from shard 0", i)
		}
	}
	return nil
}

// CheckKernelInvariants runs every replica's structural invariants, on
// every shard of both groups.
func (s *System) CheckKernelInvariants() error {
	var err error
	check := func(k *sys.Kernel) {
		if err = k.FS().CheckInvariant(); err != nil {
			return
		}
		err = k.Procs().CheckInvariant()
	}
	for i := 0; i < s.NumShards(); i++ {
		for r := 0; r < s.NumReplicas(); r++ {
			s.InspectProcShard(i, r, check)
			if err != nil {
				return fmt.Errorf("proc shard %d replica %d: %w", i, r, err)
			}
			s.InspectFsShard(i, r, check)
			if err != nil {
				return fmt.Errorf("fs shard %d replica %d: %w", i, r, err)
			}
		}
	}
	return nil
}

// registerComponents fills the relwork self-inventory: each Table 2 row
// vnros claims, by a component package whose VCs RegisterAllObligations
// runs (not every one is wired into a kernel replica: the scheduler's
// run queue is verified on its own), and the Table 1 claims.
func (s *System) registerComponents() {
	r := relwork.NewRegistry()
	r.AddComponent(relwork.Component{Table2Row: "Scheduler", Package: "internal/sched", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "Memory management", Package: "internal/mm", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "Memory management", Package: "internal/pt", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "Filesystem", Package: "internal/fs", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "Filesystem", Package: "internal/wal", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "Filesystem", Package: "internal/walshard", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "Complex drivers", Package: "internal/dev", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "Process management", Package: "internal/proc", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "Threads and synchronization", Package: "internal/ulib", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "Network stack", Package: "internal/netstack", Checked: true})
	r.AddComponent(relwork.Component{Table2Row: "System libraries", Package: "internal/ulib", Checked: true})
	// Table 1 claims, in the repository's runtime-checked sense.
	r.SetTable1("Kernel memory safety", relwork.Yes)     // Go memory safety + bounds-checked simulated memory
	r.SetTable1("Specification refinement", relwork.Yes) // sm refinement obligations
	r.SetTable1("Security properties", relwork.Partial)  // the paper itself defers isolation (§1)
	r.SetTable1("Multi-processor support", relwork.Yes)  // NR-replicated kernel
	r.SetTable1("Process-centric spec", relwork.Yes)     // §3 contract, checked per syscall
	s.Components = r
}
