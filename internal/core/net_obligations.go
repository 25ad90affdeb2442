package core

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerNetObligations: the networked-syscall-path VCs. The socket
// state machine — bind → bound → closed, port uniqueness, no delivery
// after close — is now replicated kernel state (the socket table), so
// it gets the same treatment as the file path: a refinement check that
// replays random syscall sequences against a per-connection spec
// machine, and an agreement check between the logged table and the
// device stack. Both run monolithic and sharded: the table is one
// relation on process shard 0 either way, and the sharded run checks it
// from a process whose other state lives on another shard.
func registerNetObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "core", Name: "socket-refines-connection-spec", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				if err := sockSpecRun(r, 0); err != nil {
					return fmt.Errorf("monolithic: %w", err)
				}
				return sockSpecRunErr(sockSpecRun(r, 2), "sharded")
			}},
		verifier.Obligation{Module: "core", Name: "socket-table-matches-device", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				if err := sockTableAgreementRun(r, 0); err != nil {
					return fmt.Errorf("monolithic: %w", err)
				}
				return sockSpecRunErr(sockTableAgreementRun(r, 2), "sharded")
			}},
	)
}

func sockSpecRunErr(err error, mode string) error {
	if err != nil {
		return fmt.Errorf("%s: %w", mode, err)
	}
	return nil
}

// sockSpecRun drives one process through a random socket-op sequence,
// checking every completion against the per-connection spec machine:
//
//	unbound --bind(free port)--> bound --close--> closed
//
// with EADDRINUSE on a taken port, EBADF on any op after close (no
// delivery, no send, no second close), EINVAL on an oversized payload,
// and the accepted send count equal to the payload length. Sends target
// an unattached peer address, so an open socket's queue stays empty and
// non-blocking receive must report EAGAIN — never data that the spec
// says cannot exist.
func sockSpecRun(r *rand.Rand, shards int) error {
	cfg := Config{Cores: 2, MemBytes: 256 << 20, Shards: shards}
	s, err := Boot(cfg)
	if err != nil {
		return err
	}
	initSys, err := s.Init()
	if err != nil {
		return err
	}
	seed := r.Int63()
	done := make(chan error, 1)
	_, err = s.Run(initSys, "sockspec", func(p *Process) int {
		rr := rand.New(rand.NewSource(seed))
		type mSock struct {
			id   sys.SockID
			port uint16 // 0 for ephemeral (outside the model's port range)
			open bool
		}
		var socks []*mSock
		bound := make(map[uint16]bool) // model: fixed-range ports in use
		fail := func(f string, a ...any) int {
			done <- fmt.Errorf(f, a...)
			return 1
		}
		pick := func() *mSock {
			if len(socks) == 0 {
				return nil
			}
			return socks[rr.Intn(len(socks))]
		}
		for i := 0; i < 150; i++ {
			switch rr.Intn(6) {
			case 0: // bind a port from a small contended range
				port := uint16(5000 + rr.Intn(6))
				id, e := p.Sys.SockBind(sys.Port(port))
				if bound[port] {
					if e != sys.EADDRINUSE {
						return fail("op %d: bind taken port %d: got %v, spec EADDRINUSE", i, port, e)
					}
					continue
				}
				if e != sys.EOK {
					return fail("op %d: bind free port %d: %v", i, port, e)
				}
				bound[port] = true
				socks = append(socks, &mSock{id: id, port: port, open: true})
			case 1: // ephemeral bind
				id, e := p.Sys.SockBind(0)
				if e != sys.EOK {
					return fail("op %d: ephemeral bind: %v", i, e)
				}
				socks = append(socks, &mSock{id: id, open: true})
			case 2: // send to an unattached peer
				m := pick()
				if m == nil {
					continue
				}
				payload := make([]byte, 1+rr.Intn(64))
				n, e := p.Sys.SockSend(m.id, 0xDEAD, 9, payload)
				if !m.open {
					if e != sys.EBADF {
						return fail("op %d: send on closed socket: got %v, spec EBADF", i, e)
					}
					continue
				}
				if e != sys.EOK {
					return fail("op %d: send: %v", i, e)
				}
				if n != uint64(len(payload)) {
					return fail("op %d: send accepted %d of %d bytes", i, n, len(payload))
				}
			case 3: // oversized send
				m := pick()
				if m == nil || !m.open {
					continue
				}
				big := make([]byte, netstack.MaxPayload+1)
				if _, e := p.Sys.SockSend(m.id, 0xDEAD, 9, big); e != sys.EINVAL {
					return fail("op %d: oversized send: got %v, spec EINVAL", i, e)
				}
			case 4: // non-blocking receive
				m := pick()
				if m == nil {
					continue
				}
				_, _, _, e := p.Sys.SockRecv(m.id)
				want := sys.EAGAIN // open and empty: nothing is addressed to us
				if !m.open {
					want = sys.EBADF // no delivery after close
				}
				if e != want {
					return fail("op %d: recv (open=%v): got %v, spec %v", i, m.open, e, want)
				}
			case 5: // close (possibly a double close)
				m := pick()
				if m == nil {
					continue
				}
				e := p.Sys.SockClose(m.id)
				if !m.open {
					if e != sys.EBADF {
						return fail("op %d: double close: got %v, spec EBADF", i, e)
					}
					continue
				}
				if e != sys.EOK {
					return fail("op %d: close: %v", i, e)
				}
				m.open = false
				if m.port != 0 {
					delete(bound, m.port) // the port is bindable again
				}
			}
		}
		// Endpoint: every port the model says is free really rebinds.
		for port := uint16(5000); port < 5006; port++ {
			if bound[port] {
				continue
			}
			id, e := p.Sys.SockBind(sys.Port(port))
			if e != sys.EOK {
				return fail("endpoint: freed port %d does not rebind: %v", port, e)
			}
			if e := p.Sys.SockClose(id); e != sys.EOK {
				return fail("endpoint: close: %v", e)
			}
		}
		done <- nil
		return 0
	})
	if err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	s.WaitAll()
	return nil
}

// sockTableAgreementRun checks that the replicated socket table and the
// device stack agree on the bound-port set after a random bind/close
// history — the §3 view() agreement across the table/device cut, and on
// a sharded kernel across every process shard's slice of the table.
func sockTableAgreementRun(r *rand.Rand, shards int) error {
	s, err := Boot(Config{Cores: 2, MemBytes: 256 << 20, Shards: shards})
	if err != nil {
		return err
	}
	initSys, err := s.Init()
	if err != nil {
		return err
	}
	seed := r.Int63()
	done := make(chan error, 1)
	release := make(chan struct{})
	_, err = s.Run(initSys, "tabagree", func(p *Process) int {
		rr := rand.New(rand.NewSource(seed))
		open := make(map[sys.SockID]bool)
		var ids []sys.SockID
		for i := 0; i < 80; i++ {
			if rr.Intn(3) != 0 || len(ids) == 0 {
				id, e := p.Sys.SockBind(0)
				if e != sys.EOK {
					done <- fmt.Errorf("bind: %v", e)
					return 1
				}
				open[id] = true
				ids = append(ids, id)
			} else {
				id := ids[rr.Intn(len(ids))]
				e := p.Sys.SockClose(id)
				if open[id] != (e == sys.EOK) {
					done <- fmt.Errorf("close %d: open=%v errno=%v", id, open[id], e)
					return 1
				}
				open[id] = false
			}
		}
		done <- nil
		<-release // hold the sockets open until the views are compared
		return 0
	})
	if err != nil {
		return err
	}
	if err := <-done; err != nil {
		close(release)
		return err
	}
	defer close(release)

	// Collect the table's port set from the replicated state (synced to
	// each log's tail by Inspect).
	tablePorts := make(map[uint16]bool)
	collect := func(k *sys.Kernel) {
		for port := range k.ViewSockTab(0).Ports {
			tablePorts[port] = true
		}
	}
	for i := 0; i < s.NumShards(); i++ {
		s.InspectProcShard(i, 0, collect)
	}
	devPorts := make(map[uint16]bool)
	for _, port := range s.Net.BoundPorts() {
		devPorts[port] = true
	}
	for port := range tablePorts {
		if !devPorts[port] {
			return fmt.Errorf("port %d in the table but not bound on the device", port)
		}
	}
	for port := range devPorts {
		if !tablePorts[port] {
			return fmt.Errorf("port %d bound on the device but absent from the table", port)
		}
	}
	return nil
}
