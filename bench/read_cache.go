package main

import (
	"bytes"
	"fmt"
	"math/rand"

	vnros "github.com/verified-os/vnros"
)

// read_hot / read_cold sizes. The two workloads share every line of
// code and differ only in how many files they spread their reads over:
// 2 MiB sits inside the 2 x 1024-page cache, 32 MiB is four times it.
const (
	readFileSize  = 64 << 10
	readPage      = vnros.PageSize
	readFilePages = readFileSize / readPage
	readHotFiles  = 32
	readColdFiles = 512
	readWriteSize = 256
	readStream    = 1 << 16
)

// readOp is one generated request: a page-aligned 4 KiB pread, or a
// 256 B write inside a page (which invalidates the cached page).
type readOp struct {
	write bool
	file  uint16 // index into the client's own files
	page  uint8
	in    uint16 // write offset inside the page
}

type readInputs struct {
	files   int
	base    []byte // every page's contents are a window of this buffer
	streams [numClients][]readOp
}

// pageWindow returns where in base the contents of a page start: page
// p of global file f holds base[w : w+readPage]. Writes store the same
// bytes the page already holds, so contents never change and every read
// can be checked against the window without a shadow copy of 32 MiB.
func pageWindow(f, p int) int { return (f*131 + p*977) % readPage }

type readState struct {
	in  *readInputs
	ops []readOp
	fds []vnros.FD // the client's files: global file index = 2*i + client id
	buf [readPage]byte
}

var (
	spPread, spPageWrite = spanName("pread"), spanName("write")
	spSysPread           = spanName("sys.Pread")
)

func readConfig() vnros.Config { return vnros.Config{Cores: 28, Shards: 2} }

func readWorkload(name, why string, files int) *workload {
	return &workload{
		name: name,
		why:  why,
		gen: func(rng *rand.Rand) any {
			in := &readInputs{files: files, base: newPool(rng, 2*readPage)}
			for c := range in.streams {
				ops := make([]readOp, readStream)
				for i := range ops {
					ops[i] = readOp{
						write: rng.Intn(100) >= 95,
						file:  uint16(rng.Intn(files / numClients)),
						page:  uint8(rng.Intn(readFilePages)),
						in:    uint16(rng.Intn(readPage - readWriteSize + 1)),
					}
				}
				in.streams[c] = ops
			}
			return in
		},
		setup: func(inputs any) (*instance, error) {
			in := inputs.(*readInputs)
			s, err := vnros.Boot(readConfig())
			if err != nil {
				return nil, err
			}
			initSys, err := s.Init()
			if err != nil {
				return nil, err
			}
			// Contract off: RawSysOn handles, one per NUMA node (cores 0
			// and 14 sit on replicas 0 and 1).
			cs := newClients(numClients, 1, readStep)
			for _, c := range cs {
				pid, e := initSys.Spawn(fmt.Sprintf("reader%d", c.id))
				if e != vnros.EOK {
					return nil, fmt.Errorf("spawn: %v", e)
				}
				if c.sys, err = s.RawSysOn(pid, c.id*14); err != nil {
					return nil, err
				}
				if err := readPopulate(c, in); err != nil {
					return nil, err
				}
				go c.serve()
			}
			return &instance{
				clients: cs,
				stop:    func() { retire(cs) },
				check:   func() error { return checkSystem(s, initSys) },
				sys:     s,
			}, nil
		},
		probes:  readProbes,
		reports: concat(syscallLayers, pcacheLayers, opClass("pread"), opClass("write")),
	}
}

var readHot = readWorkload("read_hot",
	"pcache hit path and the copy chain do nearly all the work; the combiner is crossed only by the 5% writes",
	readHotFiles)

var readCold = readWorkload("read_cold",
	"same code as read_hot on 4x the cache: fills through the logged NumFsReadAt, eviction, reclaim",
	readColdFiles)

// readPopulate creates the client's files, fills them, and keeps one
// descriptor open per file.
func readPopulate(c *client, in *readInputs) error {
	st := &readState{in: in, ops: in.streams[c.id], fds: make([]vnros.FD, in.files/numClients)}
	content := make([]byte, readFileSize)
	for i := range st.fds {
		f := numClients*i + c.id
		for p := 0; p < readFilePages; p++ {
			copy(content[p*readPage:], in.base[pageWindow(f, p):][:readPage])
		}
		fd, e := c.sys.Open(fmt.Sprintf("/data%d", f), vnros.OCreate|vnros.ORdWr)
		if e != vnros.EOK {
			return fmt.Errorf("populate open: %v", e)
		}
		if n, e := c.sys.Write(fd, content); e != vnros.EOK || n != readFileSize {
			return fmt.Errorf("populate write: %d, %v", n, e)
		}
		st.fds[i] = fd
	}
	c.st = st
	return nil
}

// readStep issues the client's next request; a read's bytes are checked
// against the page's window of the base buffer.
func readStep(c *client) int {
	st := c.st.(*readState)
	op := &st.ops[c.next%len(st.ops)]
	c.next++
	S, tr := c.sys, c.tr
	fd := st.fds[op.file]
	w := pageWindow(numClients*int(op.file)+c.id, int(op.page))
	off := uint64(op.page) * readPage
	if !op.write {
		root := tr.request(spPread)
		sp := tr.begin(spSysPread)
		n, e := S.Pread(fd, st.buf[:], off)
		tr.end(sp)
		tr.end(root)
		if e != vnros.EOK || n != readPage || !bytes.Equal(st.buf[:], st.in.base[w:w+readPage]) {
			return 1
		}
		return 0
	}
	root := tr.request(spPageWrite)
	defer tr.end(root)
	sp := tr.begin(spSysSeek)
	_, e := S.Seek(fd, int64(off)+int64(op.in), vnros.SeekSet)
	tr.end(sp)
	if e != vnros.EOK {
		return 1
	}
	sp = tr.begin(spSysWrite)
	n, e := S.Write(fd, st.in.base[w+int(op.in):][:readWriteSize])
	tr.end(sp)
	if e != vnros.EOK || n != readWriteSize {
		return 1
	}
	return 0
}
