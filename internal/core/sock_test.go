package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/sys"
)

// The regression suite for the networked syscall path: every test runs
// against the monolithic kernel and the sharded kernel. The socket table
// is one relation on process shard 0 in both, but on the sharded kernel
// that shard is not where the caller's other state lives, and an exit's
// tree transition there follows a detach on another shard.

func forEachKernelMode(t *testing.T, f func(t *testing.T, shards int)) {
	t.Run("monolithic", func(t *testing.T) { f(t, 0) })
	t.Run("sharded", func(t *testing.T) { f(t, 2) })
}

func bootMode(t *testing.T, shards int) (*System, *sys.Sys) {
	t.Helper()
	s, err := Boot(Config{Cores: 4, MemBytes: 256 << 20, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	initSys, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	return s, initSys
}

// A socket id is a per-process capability: another process using the
// same numeric id must get EBADF from every operation, not a handle on
// the owner's socket.
func TestSockCrossPIDIsolation(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		s, initSys := bootMode(t, shards)
		bound := make(chan sys.SockID, 1)
		release := make(chan struct{})
		_, err := s.Run(initSys, "owner", func(p *Process) int {
			id, e := p.Sys.SockBind(6200)
			if e != sys.EOK {
				bound <- 0
				return 1
			}
			bound <- id
			<-release
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		id := <-bound
		if id == 0 {
			t.Fatal("owner bind failed")
		}
		defer close(release)
		probe := make(chan error, 1)
		_, err = s.Run(initSys, "intruder", func(p *Process) int {
			if _, e := p.Sys.SockSend(id, 0xA, 1, []byte("x")); e != sys.EBADF {
				probe <- fmt.Errorf("send on foreign id: %v", e)
				return 1
			}
			if _, _, _, e := p.Sys.SockRecv(id); e != sys.EBADF {
				probe <- fmt.Errorf("recv on foreign id: %v", e)
				return 1
			}
			if e := p.Sys.SockClose(id); e != sys.EBADF {
				probe <- fmt.Errorf("close on foreign id: %v", e)
				return 1
			}
			probe <- nil
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-probe; err != nil {
			t.Fatal(err)
		}
	})
}

// Exit must tear down the process's sockets in both halves — the
// replicated table (in the exit's tree transition on process shard 0)
// and the device stack — leaving the ports bindable.
func TestSockExitReleasesPorts(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		s, initSys := bootMode(t, shards)
		setup := make(chan error, 1)
		_, err := s.Run(initSys, "leaver", func(p *Process) int {
			for _, port := range []sys.Port{6300, 6301, 0} {
				if _, e := p.Sys.SockBind(port); e != sys.EOK {
					setup <- fmt.Errorf("bind %d: %v", port, e)
					return 1
				}
			}
			setup <- nil
			return 0 // exit without closing anything
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-setup; err != nil {
			t.Fatal(err)
		}
		s.WaitAll()
		if _, e := initSys.Wait(); e != sys.EOK {
			t.Fatalf("wait: %v", e)
		}
		rebind := make(chan error, 1)
		_, err = s.Run(initSys, "rebinder", func(p *Process) int {
			for _, port := range []sys.Port{6300, 6301} {
				id, e := p.Sys.SockBind(port)
				if e != sys.EOK {
					rebind <- fmt.Errorf("rebind %d after exit: %v", port, e)
					return 1
				}
				if e := p.Sys.SockClose(id); e != sys.EOK {
					rebind <- fmt.Errorf("close: %v", e)
					return 1
				}
			}
			rebind <- nil
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-rebind; err != nil {
			t.Fatal(err)
		}
		s.WaitAll()
	})
}

// Close is terminal and exact: receive after close fails EBADF, a
// second close fails EBADF without touching a successor socket that
// reused the port, and a port held by one process refuses a second
// binder with EADDRINUSE until released.
func TestSockCloseSemantics(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		s, initSys := bootMode(t, shards)
		done := make(chan error, 1)
		_, err := s.Run(initSys, "closer", func(p *Process) int {
			fail := func(f string, a ...any) int {
				done <- fmt.Errorf(f, a...)
				return 1
			}
			id, e := p.Sys.SockBind(6400)
			if e != sys.EOK {
				return fail("bind: %v", e)
			}
			if _, e := p.Sys.SockBind(6400); e != sys.EADDRINUSE {
				return fail("second bind of held port: got %v, want EADDRINUSE", e)
			}
			if e := p.Sys.SockClose(id); e != sys.EOK {
				return fail("close: %v", e)
			}
			if _, _, _, e := p.Sys.SockRecv(id); e != sys.EBADF {
				return fail("recv after close: got %v, want EBADF", e)
			}
			// The port is free again; a double close of the old id must
			// not tear down the successor.
			id2, e := p.Sys.SockBind(6400)
			if e != sys.EOK {
				return fail("rebind after close: %v", e)
			}
			if e := p.Sys.SockClose(id); e != sys.EBADF {
				return fail("double close: got %v, want EBADF", e)
			}
			if _, _, _, e := p.Sys.SockRecv(id2); e != sys.EAGAIN {
				return fail("successor socket damaged by double close: %v", e)
			}
			if _, e := p.Sys.SockSend(id2, 0xA, 1, make([]byte, netstack.MaxPayload+1)); e != sys.EINVAL {
				return fail("oversized send: got %v, want EINVAL", e)
			}
			done <- nil
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		s.WaitAll()
	})
}

// A receiver parked on the delivery doorbell must be woken by teardown:
// SIGKILL closes the victim's sockets, the close rings the doorbell,
// and the parked receive completes with EBADF instead of sleeping
// forever.
func TestSockBlockingRecvWokenByKill(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		s, initSys := bootMode(t, shards)
		started := make(chan proc.PID, 1)
		parked := make(chan sys.Errno, 1)
		_, err := s.Run(initSys, "victim", func(p *Process) int {
			sock, e := p.Sys.SockBind(6500)
			if e != sys.EOK {
				started <- 0
				return 1
			}
			started <- p.PID
			_, _, _, e = p.Sys.SockRecvBlocking(sock)
			parked <- e
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		pid := <-started
		if pid == 0 {
			t.Fatal("victim setup failed")
		}
		if e := initSys.Kill(pid, proc.SIGKILL); e != sys.EOK {
			t.Fatal(e)
		}
		if e := <-parked; e != sys.EBADF {
			t.Fatalf("parked recv woke with %v, want EBADF", e)
		}
		s.WaitAll()
		if _, err := s.Net.Bind(6500); err != nil {
			t.Fatalf("port not released after kill: %v", err)
		}
	})
}

// Socket ops ride the submission ring alongside file ops: each entry is
// served by the scalar socket path after the batch's file ops, and the
// completions carry the documented shapes (bind → id, send → accepted
// count, recv → packed source or EAGAIN, close → released port, double
// close → EBADF). The batch goes in alone and again between a file write
// and its read-back.
func TestSockBatchOps(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		s, initSys := bootMode(t, shards)
		done := make(chan error, 1)
		_, err := s.Run(initSys, "batcher", func(p *Process) int {
			fail := func(f string, a ...any) int {
				done <- fmt.Errorf(f, a...)
				return 1
			}
			fd, e := p.Sys.Open("/sockbatch", fs.OCreate|fs.ORdWr)
			if e != sys.EOK {
				return fail("open: %v", e)
			}
			for _, mixed := range []bool{false, true} {
				id, e := p.Sys.SockBind(6600)
				if e != sys.EOK {
					return fail("scalar bind: %v", e)
				}
				payload := []byte("ring-datagram")
				ops := []sys.Op{
					sys.OpSockSend(id, 0xBEEF, 7, payload),
					sys.OpSockRecv(id),
					sys.OpSockBind(6601, 8),
					sys.OpSockClose(id),
					sys.OpSockClose(id), // double close inside the batch
				}
				text := []byte("file bytes around the sockets")
				if mixed {
					ops = append(append([]sys.Op{sys.OpWrite(fd, text)}, ops...),
						sys.OpSeek(fd, 0, fs.SeekSet), sys.OpRead(fd, 64))
				}
				comps, errno := p.Sys.SubmitWait(ops)
				if errno != sys.EOK {
					return fail("mixed=%v: batch errno: %v", mixed, errno)
				}
				if mixed {
					if c := comps[0]; c.Errno != sys.EOK || c.Val != uint64(len(text)) {
						return fail("batch write: errno %v val %d", c.Errno, c.Val)
					}
					if c := comps[len(comps)-1]; c.Errno != sys.EOK || string(c.Data) != string(text) {
						return fail("batch read-back: errno %v data %q", c.Errno, c.Data)
					}
					comps = comps[1:]
				}
				if comps[0].Errno != sys.EOK || comps[0].Val != uint64(len(payload)) {
					return fail("mixed=%v: batch send: errno %v val %d, want %d bytes accepted", mixed, comps[0].Errno, comps[0].Val, len(payload))
				}
				if comps[1].Errno != sys.EAGAIN {
					return fail("mixed=%v: batch recv on empty queue: %v, want EAGAIN", mixed, comps[1].Errno)
				}
				if comps[2].Errno != sys.EOK || comps[2].Val == 0 {
					return fail("mixed=%v: batch bind: errno %v id %d", mixed, comps[2].Errno, comps[2].Val)
				}
				if comps[3].Errno != sys.EOK || comps[3].Val != 6600 {
					return fail("mixed=%v: batch close: errno %v port %d", mixed, comps[3].Errno, comps[3].Val)
				}
				if comps[4].Errno != sys.EBADF {
					return fail("mixed=%v: batch double close: %v, want EBADF", mixed, comps[4].Errno)
				}
				if e := p.Sys.SockClose(sys.SockID(comps[2].Val)); e != sys.EOK {
					return fail("mixed=%v: closing batch-bound socket: %v", mixed, e)
				}
			}
			if err := p.Sys.ContractErr(); err != nil {
				return fail("contract: %v", err)
			}
			done <- nil
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		s.WaitAll()
	})
}

// A batched receive never blocks, whatever its flags say: a hand-rolled
// NumBatch frame carrying SockRecvBlock on a bound, empty socket
// completes EAGAIN instead of parking the batch drain on the doorbell.
func TestSockBatchRecvNeverBlocks(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		s, initSys := bootMode(t, shards)
		id, e := initSys.SockBind(6650)
		if e != sys.EOK {
			t.Fatalf("bind: %v", e)
		}
		h, err := s.newHandler(s.pickCore())
		if err != nil {
			t.Fatal(err)
		}
		frame, payload := sys.EncodeBatch(initSys.PID(), []sys.WriteOp{
			{Num: sys.NumSockRecv, Sock: uint64(id), Flags: sys.SockRecvBlock},
		})
		done := make(chan error, 1)
		go func() {
			comps, errno, err := sys.DecodeBatchResp(h.Syscall(frame, payload))
			if err == nil && (errno != sys.EOK || len(comps) != 1 || comps[0].Errno != sys.EAGAIN) {
				err = fmt.Errorf("batch errno %v, completions %v; want one EAGAIN", errno, comps)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			_ = initSys.SockClose(id) // the doorbell releases the parked drain
			t.Fatal("a batched receive parked the batch drain")
		}
		if e := initSys.SockClose(id); e != sys.EOK {
			t.Fatalf("close: %v", e)
		}
	})
}

// Bind/send/recv/close race from many processes over a handful of
// contended ports; run under -race in CI. Whatever interleaving wins,
// every success must be exclusive (one holder per port) and the ports
// must all be free at the end.
func TestSockBindCloseStress(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, shards int) {
		s, initSys := bootMode(t, shards)
		const workers = 6
		const iters = 40
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			w := w
			_, err := s.Run(initSys, fmt.Sprintf("stress%d", w), func(p *Process) int {
				for i := 0; i < iters; i++ {
					port := sys.Port(6700 + (w+i)%4)
					id, e := p.Sys.SockBind(port)
					if e == sys.EADDRINUSE {
						continue // another worker holds it
					}
					if e != sys.EOK {
						errs <- fmt.Errorf("worker %d: bind %d: %v", w, port, e)
						return 1
					}
					if _, e := p.Sys.SockSend(id, 0xF00, 1, []byte{byte(i)}); e != sys.EOK {
						errs <- fmt.Errorf("worker %d: send: %v", w, e)
						return 1
					}
					if _, _, _, e := p.Sys.SockRecv(id); e != sys.EAGAIN && e != sys.EOK {
						errs <- fmt.Errorf("worker %d: recv: %v", w, e)
						return 1
					}
					if e := p.Sys.SockClose(id); e != sys.EOK {
						errs <- fmt.Errorf("worker %d: close: %v", w, e)
						return 1
					}
					if e := p.Sys.SockClose(id); e != sys.EBADF {
						errs <- fmt.Errorf("worker %d: double close: %v", w, e)
						return 1
					}
				}
				errs <- nil
				return 0
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		s.WaitAll()
		// Every contended port must be free again.
		for port := uint16(6700); port < 6704; port++ {
			sock, err := s.Net.Bind(port)
			if err != nil {
				t.Fatalf("port %d leaked: %v", port, err)
			}
			_ = sock.Close()
		}
	})
}

// The cross-machine echo of TestNetworkBetweenSystems, but with both
// machines running sharded kernels, at scale: 256 clients over four
// processes of one machine, each parked in SockRecvBlocking between
// round trips, against eight parked workers on the other. Client sends
// go through the ring and server replies per call, so send admission
// reads the table on process shard 0 both ways while datagrams cross
// the virtual wire and wake doorbell-parked receivers. Every echo must match and nothing may be shed: the receive
// budget covers every client having a request in flight, so any
// net.rx_drop_* count is a lost or misrouted datagram, not backpressure.
func TestSockShardedCrossMachineEcho(t *testing.T) {
	const (
		clients     = 256
		clientProcs = 4
		workers     = 8
		rounds      = 3
		serverPort  = 7200
	)
	wire := netstack.NewNetwork()
	server, err := Boot(Config{Cores: 4, MemBytes: 256 << 20, NICAddr: 0xA, Network: wire, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Boot(Config{Cores: 4, MemBytes: 256 << 20, NICAddr: 0xB, Network: wire, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	serverInit, err := server.Init()
	if err != nil {
		t.Fatal(err)
	}
	clientInit, err := client.Init()
	if err != nil {
		t.Fatal(err)
	}
	obs.Reset()
	obs.Enable()
	defer obs.Disable()

	stop := make(chan struct{})
	bound := make(chan sys.Errno, 1)
	if _, err := server.Run(serverInit, "echosrv", func(p *Process) int {
		sock, e := p.Sys.SockBindBudget(serverPort, 2*clients+workers)
		bound <- e
		if e != sys.EOK {
			return 1
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					payload, from, port, e := p.Sys.SockRecvBlocking(sock)
					if e != sys.EOK {
						return // EBADF: closed below, test over
					}
					_, _ = p.Sys.SockSend(sock, from, port, payload)
				}
			}()
		}
		<-stop
		_ = p.Sys.SockClose(sock) // the doorbell wakes every parked worker
		wg.Wait()
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if e := <-bound; e != sys.EOK {
		t.Fatalf("server bind: %v", e)
	}

	errs := make(chan error, clients)
	for cp := 0; cp < clientProcs; cp++ {
		if _, err := client.Run(clientInit, fmt.Sprintf("clients%d", cp), func(p *Process) int {
			var wg sync.WaitGroup
			for g := 0; g < clients/clientProcs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sock, e := p.Sys.SockBind(0)
					if e != sys.EOK {
						errs <- fmt.Errorf("client bind: %v", e)
						return
					}
					defer p.Sys.SockClose(sock)
					req := []byte(fmt.Sprintf("echo %d/%d", cp, g))
					for m := 0; m < rounds; m++ {
						comps, e := p.Sys.SubmitWait([]sys.Op{sys.OpSockSend(sock, 0xA, serverPort, req)})
						if e != sys.EOK || comps[0].Errno != sys.EOK {
							errs <- fmt.Errorf("client send: %v/%v", e, comps)
							return
						}
						reply, _, _, e := p.Sys.SockRecvBlocking(sock)
						if e != sys.EOK {
							errs <- fmt.Errorf("client recv: %v", e)
							return
						}
						if string(reply) != string(req) {
							errs <- fmt.Errorf("reply %q != request %q", reply, req)
							return
						}
					}
				}()
			}
			wg.Wait()
			return 0
		}); err != nil {
			t.Fatal(err)
		}
	}
	client.WaitAll()
	close(stop)
	server.WaitAll()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := obs.NetRxDelivered.Load(); got != 2*clients*rounds {
		t.Errorf("net.rx_delivered = %d, want %d", got, 2*clients*rounds)
	}
	for _, c := range []*obs.Counter{
		obs.NetRxDropOverflow, obs.NetRxDropClosed, obs.NetRxDropNoListener,
		obs.NetRxDropBadSum, obs.NetRxDropBadFrame,
	} {
		if n := c.Load(); n != 0 {
			t.Errorf("%s = %d, want 0", c.Name(), n)
		}
	}
	for _, s := range []*sys.Sys{serverInit, clientInit} {
		if err := s.ContractErr(); err != nil {
			t.Error(err)
		}
	}
	for _, s := range []*System{server, client} {
		if err := s.CheckReplicaAgreement(); err != nil {
			t.Error(err)
		}
	}
}

// TestSockSourceIs48Bits: a received datagram's source has one encoding,
// the address above the port in Val, per call and in a batch. A NICAddr
// wider than sys.NetAddrBits is refused at boot, and the largest one
// that fits reads the same both ways.
func TestSockSourceIs48Bits(t *testing.T) {
	if _, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, NICAddr: 1 << sys.NetAddrBits}); err == nil {
		t.Fatal("Boot accepted a NICAddr wider than 48 bits")
	}
	const far = 1<<sys.NetAddrBits - 1
	wire := netstack.NewNetwork()
	sa, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, NICAddr: far, Network: wire})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, NICAddr: 0xB, Network: wire})
	if err != nil {
		t.Fatal(err)
	}
	initA, _ := sa.Init()
	initB, _ := sb.Init()
	recv, e := initB.SockBind(7001)
	if e != sys.EOK {
		t.Fatal(e)
	}
	send, e := initA.SockBind(7002)
	if e != sys.EOK {
		t.Fatal(e)
	}
	for range 2 { // the wire delivers before SockSend returns
		if _, e := initA.SockSend(send, 0xB, 7001, []byte("far")); e != sys.EOK {
			t.Fatal(e)
		}
	}
	want := sys.SockFrom{Addr: far, Port: 7002}
	if _, addr, port, e := initB.SockRecv(recv); e != sys.EOK || (sys.SockFrom{Addr: addr, Port: port}) != want {
		t.Fatalf("per call: source %#x:%d (%v), want %#x:%d", addr, port, e, want.Addr, want.Port)
	}
	comps, e := initB.SubmitWait([]sys.Op{sys.OpSockRecv(recv)})
	if e != sys.EOK || comps[0].Errno != sys.EOK || comps[0].SockFrom() != want {
		t.Fatalf("in a batch: %+v (%v), want source %#x:%d", comps, e, want.Addr, want.Port)
	}
}
