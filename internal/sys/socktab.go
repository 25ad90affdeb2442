package sys

import (
	"github.com/verified-os/vnros/internal/proc"
)

// The replicated socket table: the kernel-state half of the network
// path. The table owns what must be agreed on and logged — which
// (PID, socket id) exists, which port it holds, the port-uniqueness
// invariant, and the receive budget — while the device half (NIC
// transmit, interrupt-fed receive queues) stays in core. Applying the
// same socktab op log to two replicas yields identical tables: the one
// non-deterministic input, the ephemeral port, is resolved device-side
// by core *before* the bind is logged, the same idiom mmap uses for
// data frames.
//
// Placement: port uniqueness relates every process's sockets, so the
// table is a global relation and lives whole on process shard 0, like
// the process tree — which is the one instance on a co-located kernel.
// Bind and close are one transition there, a send's admission is a
// replica-local NumSockTabGet, and a process's rows go in its exit's
// tree transition (exitTree).

// sockEntry is one socket's replicated state.
type sockEntry struct {
	Port   uint16
	Budget uint32 // receive budget (0 = stack default); informational for view()
}

// sockOwner records which socket holds a port.
type sockOwner struct {
	PID proc.PID
	ID  uint64
}

// sockTab is the socket table of one kernel replica.
type sockTab struct {
	socks  map[proc.PID]map[uint64]sockEntry
	ports  map[uint16]sockOwner
	nextID uint64
}

func newSockTab() *sockTab {
	return &sockTab{
		socks: make(map[proc.PID]map[uint64]sockEntry),
		ports: make(map[uint16]sockOwner),
	}
}

// dispatchSockWrite serves the socket-table mutating ops.
func (k *Kernel) dispatchSockWrite(op WriteOp) Resp {
	t := k.socks
	switch op.Num {
	case NumSockTabBind:
		// op.Port is the device-resolved concrete port (never 0: core
		// resolves ephemeral binds against the stack before logging).
		if op.Port == 0 {
			return Resp{Errno: EINVAL}
		}
		if _, used := t.ports[op.Port]; used {
			return Resp{Errno: EADDRINUSE}
		}
		t.nextID++
		id := t.nextID
		if t.socks[op.PID] == nil {
			t.socks[op.PID] = make(map[uint64]sockEntry)
		}
		t.socks[op.PID][id] = sockEntry{Port: op.Port, Budget: op.Word}
		t.ports[op.Port] = sockOwner{PID: op.PID, ID: id}
		return ok(id)

	case NumSockTabClose:
		ent, okE := t.socks[op.PID][op.Sock]
		if !okE {
			// Double close: the entry is already gone. Well-defined EBADF,
			// never a panic and never another socket's teardown.
			return Resp{Errno: EBADF}
		}
		delete(t.socks[op.PID], op.Sock)
		if len(t.socks[op.PID]) == 0 {
			delete(t.socks, op.PID)
		}
		delete(t.ports, ent.Port)
		return ok(uint64(ent.Port))
	}
	return Resp{Errno: ENOSYS}
}

// dispatchSockRead serves the socket-table read-only ops.
func (k *Kernel) dispatchSockRead(op *ReadOp) Resp {
	switch op.Num {
	case NumSockTabGet:
		ent, okE := k.socks.socks[op.PID][op.Sock]
		if !okE {
			return Resp{Errno: EBADF}
		}
		return Resp{Errno: EOK, Val: uint64(ent.Port), Off: uint64(ent.Budget)}
	}
	return Resp{Errno: ENOSYS}
}

// drop removes a PID's rows and frees their ports (the socket half of
// exit; core closes the device sockets). A port is in ports exactly
// while one row holds it — bind refuses a held port — so freeing a
// row's port never frees another socket's.
func (t *sockTab) drop(pid proc.PID) {
	for _, ent := range t.socks[pid] {
		delete(t.ports, ent.Port)
	}
	delete(t.socks, pid)
}

// SockTabView is the §3 view() abstraction of the socket table for the
// contract checker and the refinement obligations.
type SockTabView struct {
	// Socks maps socket id → bound port for one PID.
	Socks map[uint64]uint16
	// Ports is every port owned in this kernel's table, with its owner.
	Ports map[uint16]struct {
		PID proc.PID
		ID  uint64
	}
}

// ViewSockTab snapshots the socket table for a PID (plus the full port
// ownership map) — the replicated-state side of the socket refinement.
func (k *Kernel) ViewSockTab(pid proc.PID) SockTabView {
	v := SockTabView{
		Socks: make(map[uint64]uint16),
		Ports: make(map[uint16]struct {
			PID proc.PID
			ID  uint64
		}),
	}
	for id, ent := range k.socks.socks[pid] {
		v.Socks[id] = ent.Port
	}
	for port, own := range k.socks.ports {
		v.Ports[port] = struct {
			PID proc.PID
			ID  uint64
		}{own.PID, own.ID}
	}
	return v
}
