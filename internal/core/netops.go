package core

import (
	"errors"

	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sched"
	"github.com/verified-os/vnros/internal/sys"
)

// This file is the networked syscall path: the composition of the
// replicated socket *table* (internal/sys/socktab.go — which sockets
// exist, which ports they hold, the port-uniqueness invariant) with the
// device half of networking (NIC transmit, interrupt-fed receive
// queues), which stays core-local like every other device.
//
// The split follows the determinism line, not the subsystem line:
//
//   - Bind and close are *logged* transitions on process shard 0, which
//     holds the whole table on either kernel: port uniqueness relates
//     every process's sockets, so the table is a global relation like
//     the process tree, and one body serves both kernels. The one
//     non-deterministic input — the ephemeral port — is resolved
//     device-side before the bind is logged (the same idiom mmap uses
//     for data frames), so replaying the log on any replica rebuilds an
//     identical table. A send's admission is a replica-local read of the
//     table: it mutates nothing, so it never enters the log.
//   - Receive stays device-local: the queue is fed by interrupts, which
//     are not log entries. The NIC's raise is taken at once, on the
//     goroutine that delivered the frame (dev.Dispatcher is the
//     controller's interrupt line), so nothing polls for it. A blocking
//     receive parks on a per-socket wait queue rung by the stack's
//     delivery doorbell — a completion-style wakeup.
//
// A batch's socket entries take this same path (sockEntry), after the
// batch's file ops and outside its ctxMu section.

// devSock pairs a process's device socket with the wait queue its
// blocking receivers park on. The doorbell → Wake wiring is installed
// at bind time, before the socket is published.
type devSock struct {
	sock *netstack.Socket
	wq   *sched.WaitQueue
}

func (s *System) installSock(pid proc.PID, id uint64, sock *netstack.Socket) {
	ds := &devSock{sock: sock, wq: sched.NewWaitQueue()}
	sock.SetDoorbell(ds.wq.Wake)
	s.sockMu.Lock()
	if s.sockets[pid] == nil {
		s.sockets[pid] = make(map[uint64]*devSock)
	}
	s.sockets[pid][id] = ds
	s.sockMu.Unlock()
}

func (s *System) devSockOf(pid proc.PID, id uint64) (*devSock, sys.Errno) {
	s.sockMu.Lock()
	defer s.sockMu.Unlock()
	ds := s.sockets[pid][id]
	if ds == nil {
		return nil, sys.EBADF
	}
	return ds, sys.EOK
}

func (s *System) removeSock(pid proc.PID, id uint64) *devSock {
	s.sockMu.Lock()
	defer s.sockMu.Unlock()
	ds := s.sockets[pid][id]
	delete(s.sockets[pid], id)
	if len(s.sockets[pid]) == 0 {
		delete(s.sockets, pid)
	}
	return ds
}

// sockOp serves the four wire-level socket syscalls.
func (s *System) sockOp(h *handler, op sys.WriteOp) sys.Resp {
	switch op.Num {
	case sys.NumSockBind:
		return s.sockBind(h, op)
	case sys.NumSockSend:
		return s.sockSend(h, op)
	case sys.NumSockRecv:
		return s.sockRecv(h, op)
	case sys.NumSockClose:
		return s.sockClose(h, op)
	}
	return sys.Resp{Errno: sys.ENOSYS}
}

// sockEntry completes one batched socket entry through the scalar path.
// A batched receive never blocks: SockRecvBlock is cleared, so an empty
// queue completes EAGAIN instead of parking the batch drain. The
// completion packs a received datagram's source as (from<<16)|fromPort.
func (h *handler) sockEntry(op sys.WriteOp) sys.Completion {
	op.Flags &^= sys.SockRecvBlock
	r := h.s.sockOp(h, op)
	c := sys.BatchCompletion(op, r)
	if op.Num == sys.NumSockRecv && r.Errno == sys.EOK {
		c.Val = r.Val<<16 | uint64(uint16(r.TID))
	}
	return c
}

// tabExec applies one socket-table transition on process shard 0 (takes
// ctxMu itself).
func (h *handler) tabExec(op sys.WriteOp) sys.Resp {
	h.ctxMu.Lock()
	defer h.ctxMu.Unlock()
	return *h.procExecOn(0, &op)
}

// sockBind: device first (resolving the concrete port — ephemeral binds
// pick one here — and creating the receive queue), then the logged
// table transition that checks the port and assigns the socket id. A
// failed transition unwinds the device half, so table and device never
// disagree about which ports are bound.
func (s *System) sockBind(h *handler, op sys.WriteOp) sys.Resp {
	sock, err := s.Net.BindBudget(op.Port, int(op.Word))
	if err != nil {
		return sys.Resp{Errno: sys.ErrnoFromError(err)}
	}
	tr := h.tabExec(sys.WriteOp{Num: sys.NumSockTabBind, PID: op.PID, Port: sock.Port(), Word: op.Word})
	if tr.Errno != sys.EOK {
		_ = sock.Close()
		return tr
	}
	s.installSock(op.PID, tr.Val, sock)
	obs.NetSockBinds.Add(uint32(h.core), 1)
	return tr
}

// sockSend: admission is a replica-local read of the table — the socket
// must be the caller's (EBADF), then the payload must fit a datagram
// (EINVAL) — and the accepted count is the whole payload; the device
// transmit follows. Past admission the datagram is fire-and-forget: a
// socket torn down between verdict and transmit is indistinguishable
// from frame loss, which UDP semantics already admit.
func (s *System) sockSend(h *handler, op sys.WriteOp) sys.Resp {
	h.ctxMu.Lock()
	g := h.procReadOn(0, sys.ReadOp{Num: sys.NumSockTabGet, PID: op.PID, Sock: op.Sock})
	h.ctxMu.Unlock()
	if g.Errno != sys.EOK {
		return sys.Resp{Errno: g.Errno}
	}
	if len(op.Data) > netstack.MaxPayload {
		return sys.Resp{Errno: sys.EINVAL}
	}
	if ds, e := s.devSockOf(op.PID, op.Sock); e == sys.EOK {
		_ = ds.sock.SendTo(netstack.Addr(op.Addr), op.Port, op.Data)
	}
	return sys.Resp{Errno: sys.EOK, Val: uint64(len(op.Data))}
}

// sockRecv serves receive entirely device-side. Non-blocking returns
// EAGAIN on an empty queue; with sys.SockRecvBlock set the caller parks
// on the socket's wait queue until the delivery doorbell (or close)
// rings it. The prepare → re-check → park sequence is the futex
// lost-wakeup discipline: a doorbell between the ticket and the park
// advances the sequence, so Wait returns instead of sleeping through it.
func (s *System) sockRecv(h *handler, op sys.WriteOp) sys.Resp {
	ds, e := s.devSockOf(op.PID, op.Sock)
	if e != sys.EOK {
		return sys.Resp{Errno: e}
	}
	block := op.Flags&sys.SockRecvBlock != 0
	for {
		r, err := ds.sock.TryRecv()
		if err == nil {
			return sys.Resp{Errno: sys.EOK, Val: uint64(r.From), TID: sched.TID(r.FromPort), Data: r.Payload}
		}
		if !errors.Is(err, netstack.ErrWouldBlock) || !block {
			return sys.Resp{Errno: sys.ErrnoFromError(err)}
		}
		ticket := ds.wq.Prepare()
		if r, err = ds.sock.TryRecv(); err == nil {
			return sys.Resp{Errno: sys.EOK, Val: uint64(r.From), TID: sched.TID(r.FromPort), Data: r.Payload}
		} else if !errors.Is(err, netstack.ErrWouldBlock) {
			return sys.Resp{Errno: sys.ErrnoFromError(err)}
		}
		obs.NetRecvParks.Add(uint32(h.core), 1)
		ds.wq.Wait(ticket)
		obs.NetRecvWakes.Add(uint32(h.core), 1)
	}
}

// sockClose: the table transition is the authoritative verdict — a
// double close finds the entry already gone and fails EBADF without
// touching anything, so it can never tear down a successor socket that
// reused the port. On success the device socket is closed (idempotent,
// ringing the doorbell so parked receivers wake into EBADF).
func (s *System) sockClose(h *handler, op sys.WriteOp) sys.Resp {
	tr := h.tabExec(sys.WriteOp{Num: sys.NumSockTabClose, PID: op.PID, Sock: op.Sock})
	if tr.Errno != sys.EOK {
		return tr
	}
	if ds := s.removeSock(op.PID, op.Sock); ds != nil {
		_ = ds.sock.Close()
	}
	obs.NetSockCloses.Add(uint32(h.core), 1)
	return tr
}
