package core

import (
	"errors"
	"time"

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
//   - Bind, send and close are *logged* transitions. The one
//     non-deterministic input — the ephemeral port — is resolved
//     device-side before the bind is logged (the same idiom mmap uses
//     for data frames), so replaying the log on any replica rebuilds an
//     identical table. On a sharded kernel the table op runs on the
//     process shard owning the PID, with the global port namespace
//     pinned to process shard 0 (acquire → bind → release on unwind,
//     mirroring the spawn/exit tree-vs-resources ordering).
//   - Receive stays device-local: the queue is fed by interrupts, which
//     are not log entries. A blocking receive parks on a per-socket
//     wait queue rung by the stack's delivery doorbell — a
//     completion-style wakeup instead of a poll loop — with a pump
//     goroutine draining the interrupt controller while anyone is
//     parked (otherwise a parked core's pending IRQs would starve:
//     interrupt delivery normally rides syscall entry).

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

// sockBind: device first (resolving the concrete port — ephemeral binds
// pick one here — and creating the receive queue), then the logged
// table transition that assigns the socket id. Either half failing
// unwinds the other, so table and device never disagree about which
// ports are bound.
func (s *System) sockBind(h *handler, op sys.WriteOp) sys.Resp {
	sock, err := s.Net.BindBudget(op.Port, int(op.Word))
	if err != nil {
		return sys.Resp{Errno: sys.ErrnoFromError(err)}
	}
	port := sock.Port()
	top := sys.WriteOp{Num: sys.NumSockTabBind, PID: op.PID, Port: port, Word: op.Word}
	var tr sys.Resp
	h.ctxMu.Lock()
	if s.sharded() {
		// Port-uniqueness is global; the namespace lives on process
		// shard 0 (like the process tree). Acquire there, then log the
		// bind on the owner shard, releasing the reservation if the bind
		// fails — the spawn protocol's tree-then-resources shape.
		tr = h.procExecOn(0, sys.WriteOp{Num: sys.NumSockPortAcquire, PID: op.PID, Port: port})
		if tr.Errno == sys.EOK {
			tr = h.procExecOn(s.ProcShardOf(op.PID), top)
			if tr.Errno != sys.EOK {
				_ = h.procExecOn(0, sys.WriteOp{Num: sys.NumSockPortRelease, PID: op.PID, Port: port})
			}
		}
	} else {
		// Rule 0: the table and the port namespace are one instance's
		// state, so the bind transition checks uniqueness itself — the
		// three steps above, applied at once.
		tr = h.procExecOn(0, top)
	}
	h.ctxMu.Unlock()
	if tr.Errno != sys.EOK {
		_ = sock.Close()
		return tr
	}
	s.installSock(op.PID, tr.Val, sock)
	obs.NetSockBinds.Add(uint32(h.core), 1)
	return sys.Resp{Errno: sys.EOK, Val: tr.Val}
}

// sockSend: the logged table op is the verdict (ownership check, size
// check, accepted byte count — like the write path); the device
// transmit follows it. Past the logged acceptance the datagram is
// fire-and-forget: a socket torn down between verdict and transmit is
// indistinguishable from frame loss, which UDP semantics already admit.
func (s *System) sockSend(h *handler, op sys.WriteOp) sys.Resp {
	tr := h.procExec(sys.WriteOp{
		Num: sys.NumSockTabSend, PID: op.PID, Sock: op.Sock, Len: uint64(len(op.Data)),
	})
	if tr.Errno != sys.EOK {
		return tr
	}
	if ds, e := s.devSockOf(op.PID, op.Sock); e == sys.EOK {
		_ = ds.sock.SendTo(netstack.Addr(op.Addr), op.Port, op.Data)
	}
	return sys.Resp{Errno: sys.EOK, Val: tr.Val}
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
		// Drain pending interrupts before concluding the queue is
		// empty: the calling core always, the rest only when the
		// controller reports pending work somewhere.
		s.Dispatcher.Poll(h.core)
		if s.Dispatcher.HasPending() {
			for c := 0; c < s.cfg.Cores; c++ {
				s.Dispatcher.Poll(c)
			}
		}
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
		s.netPumpAdd()
		ds.wq.Wait(ticket)
		s.netPumpDone()
		obs.NetRecvWakes.Add(uint32(h.core), 1)
	}
}

// sockClose: the table transition is the authoritative verdict — a
// double close finds the entry already gone and fails EBADF without
// touching anything, so it can never tear down a successor socket that
// reused the port. On success the device socket is closed (idempotent,
// ringing the doorbell so parked receivers wake into EBADF) and, on a
// sharded kernel, the port's namespace reservation is released.
func (s *System) sockClose(h *handler, op sys.WriteOp) sys.Resp {
	h.ctxMu.Lock()
	tr := h.procExecOn(s.ProcShardOf(op.PID), sys.WriteOp{Num: sys.NumSockTabClose, PID: op.PID, Sock: op.Sock})
	if tr.Errno == sys.EOK && s.sharded() {
		// The reservation on shard 0 is a second step only when the port
		// namespace is a different instance from the table; co-located,
		// the close transition freed the port with the entry.
		_ = h.procExecOn(0, sys.WriteOp{Num: sys.NumSockPortRelease, PID: op.PID, Port: uint16(tr.Val)})
	}
	h.ctxMu.Unlock()
	if tr.Errno != sys.EOK {
		return tr
	}
	if ds := s.removeSock(op.PID, op.Sock); ds != nil {
		_ = ds.sock.Close()
	}
	obs.NetSockCloses.Add(uint32(h.core), 1)
	return sys.Resp{Errno: sys.EOK, Val: tr.Val}
}

// ---- the receive pump ----

// netPumpAdd registers a parked receiver and ensures the pump runs.
func (s *System) netPumpAdd() {
	s.pumpMu.Lock()
	s.pumpWaiters++
	if !s.pumpRunning {
		s.pumpRunning = true
		go s.netPump()
	}
	s.pumpMu.Unlock()
}

func (s *System) netPumpDone() {
	s.pumpMu.Lock()
	s.pumpWaiters--
	s.pumpMu.Unlock()
}

// netPump drains the interrupt controller while receivers are parked.
// Interrupt delivery normally rides syscall entry; a core parked inside
// a blocking receive makes no syscalls, and the frame that would wake
// it may sit as a pending IRQ on any core. The pump polls every core
// until the last waiter unparks, then exits.
func (s *System) netPump() {
	for {
		s.pumpMu.Lock()
		active := s.pumpWaiters > 0
		if !active {
			s.pumpRunning = false
		}
		s.pumpMu.Unlock()
		if !active {
			return
		}
		for c := 0; c < s.cfg.Cores; c++ {
			s.Dispatcher.Poll(c)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// ---- batched socket ops ----

// sockBatchOp threads one submitted socket entry through the batch's
// three passes: the device pre-pass (bind resolution), the table pass
// (one ExecuteBatch alongside the batch's file ops — on a sharded
// kernel one ExecuteBatchOn round on the PID's process shard), and the
// device post-pass (transmit, receive, teardown) in submission order.
type sockBatchOp struct {
	i    int              // completion index
	op   sys.WriteOp      // the submitted wire op
	dev  *netstack.Socket // pre-bound device socket (bind only)
	port uint16           // device-resolved port (bind only)
	tab  sys.Resp         // table verdict
	skip bool             // completed early (device bind or acquire failure)
}

// tableOp is the logged half of a wire socket op (recv has none).
func (so *sockBatchOp) tableOp() sys.WriteOp {
	switch so.op.Num {
	case sys.NumSockBind:
		return sys.WriteOp{Num: sys.NumSockTabBind, PID: so.op.PID, Port: so.port, Word: so.op.Word}
	case sys.NumSockSend:
		return sys.WriteOp{Num: sys.NumSockTabSend, PID: so.op.PID, Sock: so.op.Sock, Len: uint64(len(so.op.Data))}
	default: // NumSockClose
		return sys.WriteOp{Num: sys.NumSockTabClose, PID: so.op.PID, Sock: so.op.Sock}
	}
}

// sockBatchDevBind is the device pre-pass: resolve each submitted
// bind's concrete port against the stack before anything is logged, so
// the table ops that enter the combiner batch are fully deterministic.
func (h *handler) sockBatchDevBind(sops []*sockBatchOp, comps []sys.Completion) {
	for _, so := range sops {
		if so.op.Num != sys.NumSockBind {
			continue
		}
		sock, err := h.s.Net.BindBudget(so.op.Port, int(so.op.Word))
		if err != nil {
			comps[so.i] = sys.Completion{Op: sys.NumSockBind, Errno: sys.ErrnoFromError(err)}
			so.skip = true
			continue
		}
		so.dev, so.port = sock, sock.Port()
	}
}

// sockBatchTableSharded runs the batch's socket-table half on a sharded
// kernel in three combiner rounds, none per-op (the caller holds
// ctxMu): port acquires on shard 0, the table run on the submitting
// PID's shard (every op of a batch carries the same PID), and the
// namespace releases owed by failed binds and successful closes.
func (h *handler) sockBatchTableSharded(sops []*sockBatchOp, comps []sys.Completion) {
	s := h.s
	var acq []sys.WriteOp
	var acqSo []*sockBatchOp
	for _, so := range sops {
		if so.skip || so.op.Num != sys.NumSockBind {
			continue
		}
		acq = append(acq, sys.WriteOp{Num: sys.NumSockPortAcquire, PID: so.op.PID, Port: so.port})
		acqSo = append(acqSo, so)
	}
	if len(acq) > 0 {
		for j, r := range h.procCtx.ExecuteBatchOn(0, acq) {
			if r.Errno != sys.EOK {
				so := acqSo[j]
				_ = so.dev.Close()
				comps[so.i] = sys.Completion{Op: sys.NumSockBind, Errno: r.Errno}
				so.skip = true
			}
		}
	}

	var run []sys.WriteOp
	var runSo []*sockBatchOp
	shard := 0
	for _, so := range sops {
		if so.skip || so.op.Num == sys.NumSockRecv {
			continue
		}
		shard = s.ProcShardOf(so.op.PID)
		run = append(run, so.tableOp())
		runSo = append(runSo, so)
	}
	if len(run) > 0 {
		for j, r := range h.procCtx.ExecuteBatchOn(shard, run) {
			runSo[j].tab = r
		}
	}

	var rel []sys.WriteOp
	for _, so := range runSo {
		switch {
		case so.op.Num == sys.NumSockBind && so.tab.Errno != sys.EOK:
			rel = append(rel, sys.WriteOp{Num: sys.NumSockPortRelease, PID: so.op.PID, Port: so.port})
		case so.op.Num == sys.NumSockClose && so.tab.Errno == sys.EOK:
			rel = append(rel, sys.WriteOp{Num: sys.NumSockPortRelease, PID: so.op.PID, Port: uint16(so.tab.Val)})
		}
	}
	if len(rel) > 0 {
		_ = h.procCtx.ExecuteBatchOn(0, rel)
	}
}

// sockBatchPost is the device post-pass, in submission order: publish
// bound sockets (or unwind a bind whose table half failed), transmit
// accepted sends, serve non-blocking receives, and tear down closed
// sockets. Completions carry the wire op number and the documented Val
// shapes (bind → id, send → accepted count, recv → (from<<16)|fromPort,
// close → released port).
func (h *handler) sockBatchPost(sops []*sockBatchOp, comps []sys.Completion) {
	s := h.s
	for _, so := range sops {
		if so.skip {
			continue
		}
		switch so.op.Num {
		case sys.NumSockBind:
			if so.tab.Errno != sys.EOK {
				_ = so.dev.Close()
				comps[so.i] = sys.Completion{Op: sys.NumSockBind, Errno: so.tab.Errno}
				continue
			}
			s.installSock(so.op.PID, so.tab.Val, so.dev)
			obs.NetSockBinds.Add(uint32(h.core), 1)
			comps[so.i] = sys.Completion{Op: sys.NumSockBind, Errno: sys.EOK, Val: so.tab.Val}

		case sys.NumSockSend:
			if so.tab.Errno != sys.EOK {
				comps[so.i] = sys.Completion{Op: sys.NumSockSend, Errno: so.tab.Errno}
				continue
			}
			if ds, e := s.devSockOf(so.op.PID, so.op.Sock); e == sys.EOK {
				_ = ds.sock.SendTo(netstack.Addr(so.op.Addr), so.op.Port, so.op.Data)
			}
			comps[so.i] = sys.Completion{Op: sys.NumSockSend, Errno: sys.EOK, Val: so.tab.Val}

		case sys.NumSockRecv:
			// Batch entries never block: an empty queue completes EAGAIN.
			r := s.sockRecv(h, so.op)
			c := sys.Completion{Op: sys.NumSockRecv, Errno: r.Errno}
			if r.Errno == sys.EOK {
				c.Val = r.Val<<16 | uint64(uint16(r.TID))
				c.Data = r.Data
			}
			comps[so.i] = c

		case sys.NumSockClose:
			if so.tab.Errno != sys.EOK {
				comps[so.i] = sys.Completion{Op: sys.NumSockClose, Errno: so.tab.Errno}
				continue
			}
			if ds := s.removeSock(so.op.PID, so.op.Sock); ds != nil {
				_ = ds.sock.Close()
			}
			obs.NetSockCloses.Add(uint32(h.core), 1)
			comps[so.i] = sys.Completion{Op: sys.NumSockClose, Errno: sys.EOK, Val: so.tab.Val}
		}
	}
}
