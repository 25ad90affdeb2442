package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	vnros "github.com/verified-os/vnros"
)

// net_echo sizes.
const (
	echoPayload    = 128
	echoServerAddr = 0xA
	echoClientAddr = 0xB
	echoPort       = 7000
	echoWorkers    = 2
	echoStream     = 4096 // distinct datagrams generated per client
)

type echoInputs struct {
	pool []byte
	at   [numClients][]uint32 // payload offsets into the pool
}

type echoState struct {
	in   *echoInputs
	sock vnros.SockID
	ops  [][]vnros.Op // one pre-built single-send submission per datagram
}

var (
	spEchoRTT             = spanName("echo_rtt")
	spSysSend, spSysRecvB = spanName("sys.SubmitWait"), spanName("sys.SockRecvBlocking")
)

var netEcho = &workload{
	name: "net_echo",
	why: "netstack, socket table and the sched.WaitQueue doorbell at low concurrency, " +
		"which a thousand-client smoke hides",
	unsteady: "a round trip waits on core's netPump, which sleeps 20 us between polls; how long that sleep " +
		"lasts depends on whether a P is busy (~100 us) or all are idle (~1 ms), so the rate flips between " +
		"4.6k and 6.5k RT/s from run to run (IQR 17-35 % of the median)",
	gen: func(rng *rand.Rand) any {
		in := &echoInputs{pool: newPool(rng, 64<<10)}
		for c := range in.at {
			in.at[c] = make([]uint32, echoStream)
			for i := range in.at[c] {
				in.at[c][i] = uint32(rng.Intn(len(in.pool) - echoPayload))
			}
		}
		return in
	},
	setup: func(inputs any) (*instance, error) {
		in := inputs.(*echoInputs)
		network := vnros.NewNetwork()
		boot := func(addr uint64) (*vnros.System, *vnros.Sys, error) {
			s, err := vnros.Boot(vnros.Config{Cores: 2, Shards: 2, NICAddr: addr, Network: network})
			if err != nil {
				return nil, nil, err
			}
			initSys, err := s.Init()
			return s, initSys, err
		}
		server, serverInit, err := boot(echoServerAddr)
		if err != nil {
			return nil, err
		}
		clientSys, clientInit, err := boot(echoClientAddr)
		if err != nil {
			return nil, err
		}

		// Echo server: one process, one socket, echoWorkers workers parked
		// in blocking receives; each echoes what it got to its sender.
		stopServer := make(chan struct{})
		bound := make(chan vnros.Errno, 1)
		var serverHandle *vnros.Sys
		if _, err := server.Run(serverInit, "echosrv", func(p *vnros.Process) int {
			serverHandle = p.Sys
			sock, e := p.Sys.SockBind(echoPort)
			bound <- e
			if e != vnros.EOK {
				return 1
			}
			var wg sync.WaitGroup
			for w := 0; w < echoWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						payload, from, fromPort, e := p.Sys.SockRecvBlocking(sock)
						if e != vnros.EOK {
							return // EBADF: the socket was closed, the run is over
						}
						_, _ = p.Sys.SockSend(sock, from, fromPort, payload) // a lost echo fails the client's check
					}
				}()
			}
			<-stopServer
			_ = p.Sys.SockClose(sock) // rings the doorbell: parked workers wake into EBADF
			wg.Wait()
			return 0
		}); err != nil {
			return nil, err
		}
		if e := <-bound; e != vnros.EOK {
			return nil, fmt.Errorf("server bind: %v", e)
		}

		cs := newClients(numClients, 1, echoStep)
		if err := runProcesses(clientSys, clientInit, cs, "echo", func(c *client) error {
			sock, e := c.sys.SockBind(0)
			if e != vnros.EOK {
				return fmt.Errorf("client bind: %v", e)
			}
			st := &echoState{in: in, sock: sock, ops: make([][]vnros.Op, echoStream)}
			for i, at := range in.at[c.id] {
				st.ops[i] = []vnros.Op{vnros.OpSockSend(sock, echoServerAddr, echoPort, in.pool[at:][:echoPayload])}
			}
			c.st = st
			return nil
		}); err != nil {
			return nil, err
		}
		return &instance{
			clients: cs,
			stop: func() {
				retire(cs)
				clientSys.WaitAll()
				close(stopServer)
				server.WaitAll()
			},
			check: func() error {
				if err := checkSystem(server, serverInit, serverHandle); err != nil {
					return err
				}
				return checkSystem(clientSys, append(clientHandles(cs), clientInit)...)
			},
		}, nil
	},
	probes: echoProbes,
	reports: concat([]string{"netstack.codec.ns_per_datagram", "netstack.rtt_us", "sched.waitqueue.wake_us",
		"trace.overhead_ratio"}, opClass("echo_rtt")),
}

// echoStep sends the client's next datagram through the ring, parks in
// a blocking receive, and requires the reply to equal the request.
func echoStep(c *client) int {
	st := c.st.(*echoState)
	i := c.next % len(st.ops)
	c.next++
	tr := c.tr
	root := tr.request(spEchoRTT)
	defer tr.end(root)
	sp := tr.begin(spSysSend)
	comps, e := c.sys.SubmitWait(st.ops[i])
	tr.end(sp)
	if e != vnros.EOK || len(comps) != 1 || comps[0].Errno != vnros.EOK {
		return 1
	}
	sp = tr.begin(spSysRecvB)
	reply, _, _, e := c.sys.SockRecvBlocking(st.sock)
	tr.end(sp)
	at := st.in.at[c.id][i]
	if e != vnros.EOK || !bytes.Equal(reply, st.in.pool[at:][:echoPayload]) {
		return 1
	}
	return 0
}
