// Package proc implements process management — "process management
// (spawning, waiting, signals, killing)" from the paper's §1 list.
//
// The process table is a sequential structure (NR-replicable like the
// scheduler): processes form a tree rooted at init (PID 1); exit turns
// a process into a zombie holding its status; wait reaps zombie
// children; orphans are reparented to init; signals are delivered to a
// per-process pending set, with SIGKILL forcing termination.
package proc

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// PID is a process identifier.
type PID uint64

// InitPID is the root of the process tree.
const InitPID PID = 1

// Signal numbers (the subset the simulated OS uses).
type Signal uint8

// Signals.
const (
	SIGKILL Signal = 9
	SIGTERM Signal = 15
	SIGUSR1 Signal = 10
	SIGCHLD Signal = 17
)

// SigSet is a set of signals, a bit per signal number. Delivering and
// taking a signal allocates nothing, so an exit's SIGCHLD costs its
// transition no allocation inside the NR combiner pass that applies it.
type SigSet [4]uint64

// Add puts sig in the set.
func (s *SigSet) Add(sig Signal) { s[sig/64] |= 1 << (sig % 64) }

// Has reports whether sig is in the set.
func (s SigSet) Has(sig Signal) bool { return s[sig/64]&(1<<(sig%64)) != 0 }

// takeLowest removes the lowest signal in the set and returns it.
func (s *SigSet) takeLowest() (Signal, bool) {
	for i, w := range s {
		if w != 0 {
			b := bits.TrailingZeros64(w)
			s[i] &^= 1 << b
			return Signal(i*64 + b), true
		}
	}
	return 0, false
}

// State is a process's lifecycle state.
type State uint8

// Process states.
const (
	StateRunning State = iota
	StateZombie
)

func (s State) String() string {
	if s == StateZombie {
		return "zombie"
	}
	return "running"
}

// Errors.
var (
	ErrNoProcess  = errors.New("proc: no such process")
	ErrNoChildren = errors.New("proc: no children to wait for")
	ErrWouldBlock = errors.New("proc: wait would block")
	ErrZombie     = errors.New("proc: process is a zombie")
	ErrInit       = errors.New("proc: operation not permitted on init")
)

// Process is one process-table entry.
type Process struct {
	PID      PID
	Parent   PID
	State    State
	ExitCode int
	Children map[PID]bool
	Pending  SigSet // pending signals
	Name     string
}

// Table is the process table.
type Table struct {
	procs map[PID]*Process
	next  PID
}

// NewTable creates a table containing only init.
func NewTable() *Table {
	t := &Table{procs: make(map[PID]*Process), next: InitPID + 1}
	t.procs[InitPID] = &Process{
		PID: InitPID, Parent: 0, Children: make(map[PID]bool),
		Name: "init",
	}
	return t
}

func (t *Table) get(pid PID) (*Process, error) {
	p := t.procs[pid]
	if p == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoProcess, pid)
	}
	return p, nil
}

// Spawn creates a child of parent and returns its PID.
func (t *Table) Spawn(parent PID, name string) (PID, error) {
	pp, err := t.get(parent)
	if err != nil {
		return 0, err
	}
	if pp.State == StateZombie {
		return 0, fmt.Errorf("%w: parent %d", ErrZombie, parent)
	}
	pid := t.next
	t.next++
	// The name is cloned: the caller's may alias a request buffer the
	// syscall layer reuses once the call returns.
	t.procs[pid] = &Process{
		PID: pid, Parent: parent, Children: make(map[PID]bool),
		Name: strings.Clone(name),
	}
	pp.Children[pid] = true
	return pid, nil
}

// Exit terminates a process: it becomes a zombie holding code, its
// children are reparented to init, and the parent gets SIGCHLD.
func (t *Table) Exit(pid PID, code int) error {
	if pid == InitPID {
		return fmt.Errorf("%w: exit", ErrInit)
	}
	p, err := t.get(pid)
	if err != nil {
		return err
	}
	if p.State == StateZombie {
		return fmt.Errorf("%w: %d", ErrZombie, pid)
	}
	p.State = StateZombie
	p.ExitCode = code
	// Reparent live children (and zombie children awaiting reap) to init.
	initP := t.procs[InitPID]
	for c := range p.Children {
		cp := t.procs[c]
		cp.Parent = InitPID
		initP.Children[c] = true
	}
	clear(p.Children)
	// Notify the parent.
	if pp := t.procs[p.Parent]; pp != nil && pp.State == StateRunning {
		pp.Pending.Add(SIGCHLD)
	}
	return nil
}

// WaitResult describes a reaped child.
type WaitResult struct {
	PID      PID
	ExitCode int
}

// Wait reaps one zombie child of parent (lowest PID first, for
// determinism under NR). It returns ErrWouldBlock if children exist but
// none has exited, and ErrNoChildren if there are none.
func (t *Table) Wait(parent PID) (WaitResult, error) {
	pp, err := t.get(parent)
	if err != nil {
		return WaitResult{}, err
	}
	if len(pp.Children) == 0 {
		return WaitResult{}, fmt.Errorf("%w: parent %d", ErrNoChildren, parent)
	}
	var zombies []PID
	for c := range pp.Children {
		if t.procs[c].State == StateZombie {
			zombies = append(zombies, c)
		}
	}
	if len(zombies) == 0 {
		return WaitResult{}, fmt.Errorf("%w: parent %d", ErrWouldBlock, parent)
	}
	sort.Slice(zombies, func(i, j int) bool { return zombies[i] < zombies[j] })
	c := zombies[0]
	code := t.procs[c].ExitCode
	delete(pp.Children, c)
	delete(t.procs, c)
	return WaitResult{PID: c, ExitCode: code}, nil
}

// Kill delivers a signal. SIGKILL terminates the target immediately
// (exit code 128+9); other signals are left pending for the target to
// consume.
func (t *Table) Kill(pid PID, sig Signal) error {
	p, err := t.get(pid)
	if err != nil {
		return err
	}
	if p.State == StateZombie {
		return fmt.Errorf("%w: %d", ErrZombie, pid)
	}
	if sig == SIGKILL {
		if pid == InitPID {
			return fmt.Errorf("%w: kill -9", ErrInit)
		}
		return t.Exit(pid, 128+int(SIGKILL))
	}
	p.Pending.Add(sig)
	return nil
}

// TakeSignal consumes one pending signal (lowest number first),
// returning false if none is pending.
func (t *Table) TakeSignal(pid PID) (Signal, bool, error) {
	p, err := t.get(pid)
	if err != nil {
		return 0, false, err
	}
	sig, ok := p.Pending.takeLowest()
	return sig, ok, nil
}

// Get returns a copy of the process entry.
func (t *Table) Get(pid PID) (Process, error) {
	p, err := t.get(pid)
	if err != nil {
		return Process{}, err
	}
	cp := *p
	cp.Children = make(map[PID]bool, len(p.Children))
	for c := range p.Children {
		cp.Children[c] = true
	}
	return cp, nil
}

// Len returns the number of live entries (including zombies).
func (t *Table) Len() int { return len(t.procs) }

// PIDs returns all PIDs in ascending order.
func (t *Table) PIDs() []PID {
	out := make([]PID, 0, len(t.procs))
	for pid := range t.procs {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckInvariant validates the process tree: parent links and child
// sets agree; every process except init has a live parent entry; PIDs
// are unique by construction; zombies have no children (reparented on
// exit); init never exits.
func (t *Table) CheckInvariant() error {
	if p := t.procs[InitPID]; p == nil || p.State != StateRunning {
		return fmt.Errorf("proc: init missing or dead")
	}
	for pid, p := range t.procs {
		if p.PID != pid {
			return fmt.Errorf("proc: entry %d records pid %d", pid, p.PID)
		}
		if pid != InitPID {
			pp := t.procs[p.Parent]
			if pp == nil {
				return fmt.Errorf("proc: %d has dangling parent %d", pid, p.Parent)
			}
			if !pp.Children[pid] {
				return fmt.Errorf("proc: %d missing from parent %d's children", pid, p.Parent)
			}
		}
		if p.State == StateZombie && len(p.Children) != 0 {
			return fmt.Errorf("proc: zombie %d still has children", pid)
		}
		for c := range p.Children {
			cp := t.procs[c]
			if cp == nil {
				return fmt.Errorf("proc: %d lists dead child %d", pid, c)
			}
			if cp.Parent != pid {
				return fmt.Errorf("proc: child %d of %d claims parent %d", c, pid, cp.Parent)
			}
		}
	}
	return nil
}
