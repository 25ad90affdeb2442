package main

import (
	"bytes"
	"fmt"
	"math/rand"

	vnros "github.com/verified-os/vnros"
)

// syscall_mix sizes.
const (
	mixFiles    = 16
	mixFileSize = 16 << 10
	mixIO       = 512
	mixStream   = 1 << 16 // ops generated per client; the loop cycles through them
)

type mixKind uint8

const (
	mixRead mixKind = iota
	mixWrite
	mixStat
	mixReopen
	mixMmap
)

// mixOp is one generated request.
type mixOp struct {
	kind mixKind
	file uint8  // stat / reopen target
	off  uint32 // read / write offset
	data uint32 // write payload's offset in the pool
}

type mixInputs struct {
	pool    []byte
	streams [numClients][]mixOp
}

// mixState is a client's descriptors and its shadow of the files it
// owns; every read is compared against the shadow.
type mixState struct {
	in     *mixInputs
	ops    []mixOp
	paths  [mixFiles]string
	shadow [mixFiles][]byte
	fd     vnros.FD
	cur    int // file behind fd
	buf    [mixIO]byte
}

var (
	spRead, spWrite, spStat = spanName("read"), spanName("write"), spanName("stat")
	spOpenClose, spMmapPair = spanName("open_close"), spanName("mmap_pair")

	spSysSeek, spSysRead, spSysWrite = spanName("sys.Seek"), spanName("sys.Read"), spanName("sys.Write")
	spSysStat, spSysClose, spSysOpen = spanName("sys.Stat"), spanName("sys.Close"), spanName("sys.Open")
	spSysMMap, spSysMUnmap           = spanName("sys.MMap"), spanName("sys.MUnmap")
)

var syscallMix = &workload{
	name: "syscall_mix",
	why: "the paper's headline path: marshal, boundary, NR combiner, sys.Kernel, fs, bracketed by the §3 view check; " +
		"pcache, WAL, ring and netstack idle",
	gen: func(rng *rand.Rand) any {
		in := &mixInputs{pool: newPool(rng, 64<<10)}
		for c := range in.streams {
			ops := make([]mixOp, mixStream)
			for i := range ops {
				op := mixOp{
					file: uint8(rng.Intn(mixFiles)),
					off:  uint32(rng.Intn(mixFileSize - mixIO + 1)),
					data: uint32(rng.Intn(len(in.pool) - mixIO)),
				}
				switch p := rng.Intn(100); {
				case p < 40:
					op.kind = mixRead
				case p < 70:
					op.kind = mixWrite
				case p < 80:
					op.kind = mixStat
				case p < 90:
					op.kind = mixReopen
				default:
					op.kind = mixMmap
				}
				ops[i] = op
			}
			in.streams[c] = ops
		}
		return in
	},
	setup: func(inputs any) (*instance, error) {
		in := inputs.(*mixInputs)
		s, err := vnros.Boot(vnros.Config{Cores: 2})
		if err != nil {
			return nil, err
		}
		initSys, err := s.Init()
		if err != nil {
			return nil, err
		}
		cs := newClients(numClients, 1, mixStep)
		if err := runProcesses(s, initSys, cs, "mix", func(c *client) error {
			return mixPopulate(c, in)
		}); err != nil {
			return nil, err
		}
		return &instance{
			clients: cs,
			stop:    func() { retire(cs); s.WaitAll() },
			check:   func() error { return checkSystem(s, append(clientHandles(cs), initSys)...) },
		}, nil
	},
	probes: mixProbes,
	reports: concat(syscallLayers, contractLayers,
		[]string{"sys.kernel.mmap_pair_ns", "nr.execute.ns_per_op", "nr.read.ns_per_op", "obs.enable_overhead_ratio"},
		opClass("read"), opClass("write"), opClass("stat"), opClass("open_close"), opClass("mmap_pair")),
}

// mixPopulate creates the client's files and leaves file 0 open.
func mixPopulate(c *client, in *mixInputs) error {
	st := &mixState{in: in, ops: in.streams[c.id]}
	for f := 0; f < mixFiles; f++ {
		st.paths[f] = fmt.Sprintf("/mix%d-%d", c.id, f)
		// Initial contents: a pool slice per file, so files differ.
		st.shadow[f] = append([]byte(nil), in.pool[(c.id*mixFiles+f)*512:][:mixFileSize]...)
		fd, e := c.sys.Open(st.paths[f], vnros.OCreate|vnros.ORdWr)
		if e != vnros.EOK {
			return fmt.Errorf("populate open %s: %v", st.paths[f], e)
		}
		if n, e := c.sys.Write(fd, st.shadow[f]); e != vnros.EOK || n != mixFileSize {
			return fmt.Errorf("populate write %s: %d, %v", st.paths[f], n, e)
		}
		if e := c.sys.Close(fd); e != vnros.EOK {
			return fmt.Errorf("populate close %s: %v", st.paths[f], e)
		}
	}
	fd, e := c.sys.Open(st.paths[0], vnros.ORdWr)
	if e != vnros.EOK {
		return fmt.Errorf("populate reopen: %v", e)
	}
	st.fd, st.cur = fd, 0
	c.st = st
	return nil
}

// mixStep issues the client's next request and checks its result
// against the shadow. It returns 1 when the request failed.
func mixStep(c *client) int {
	st := c.st.(*mixState)
	op := &st.ops[c.next%len(st.ops)]
	c.next++
	S, tr := c.sys, c.tr
	switch op.kind {
	case mixRead:
		root := tr.request(spRead)
		defer tr.end(root)
		sp := tr.begin(spSysSeek)
		_, e := S.Seek(st.fd, int64(op.off), vnros.SeekSet)
		tr.end(sp)
		if e != vnros.EOK {
			return 1
		}
		sp = tr.begin(spSysRead)
		n, e := S.Read(st.fd, st.buf[:])
		tr.end(sp)
		if e != vnros.EOK || n != mixIO || !bytes.Equal(st.buf[:], st.shadow[st.cur][op.off:op.off+mixIO]) {
			return 1
		}
	case mixWrite:
		root := tr.request(spWrite)
		defer tr.end(root)
		data := st.in.pool[op.data : op.data+mixIO]
		sp := tr.begin(spSysSeek)
		_, e := S.Seek(st.fd, int64(op.off), vnros.SeekSet)
		tr.end(sp)
		if e != vnros.EOK {
			return 1
		}
		sp = tr.begin(spSysWrite)
		n, e := S.Write(st.fd, data)
		tr.end(sp)
		if e != vnros.EOK || n != mixIO {
			return 1
		}
		copy(st.shadow[st.cur][op.off:], data)
	case mixStat:
		root := tr.request(spStat)
		defer tr.end(root)
		sp := tr.begin(spSysStat)
		stt, e := S.Stat(st.paths[op.file])
		tr.end(sp)
		if e != vnros.EOK || stt.Size != mixFileSize {
			return 1
		}
	case mixReopen:
		root := tr.request(spOpenClose)
		defer tr.end(root)
		sp := tr.begin(spSysClose)
		e := S.Close(st.fd)
		tr.end(sp)
		if e != vnros.EOK {
			return 1
		}
		sp = tr.begin(spSysOpen)
		fd, e := S.Open(st.paths[op.file], vnros.ORdWr)
		tr.end(sp)
		if e != vnros.EOK {
			return 1
		}
		st.fd, st.cur = fd, int(op.file)
	case mixMmap:
		root := tr.request(spMmapPair)
		defer tr.end(root)
		sp := tr.begin(spSysMMap)
		va, e := S.MMap(vnros.PageSize)
		tr.end(sp)
		if e != vnros.EOK {
			return 1
		}
		sp = tr.begin(spSysMUnmap)
		e = S.MUnmap(va)
		tr.end(sp)
		if e != vnros.EOK {
			return 1
		}
	}
	return 0
}
