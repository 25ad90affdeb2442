package core

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/pcache"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// The read-path verification conditions compose the page cache with the
// kernel (pcache's own obligations check the epoch protocol in
// isolation):
//
//   - read-mapping-refines-copy: on both the monolithic and the sharded
//     kernel, the zero-copy tier is observationally equivalent to the
//     copying tier — bytes read through a PreadMap mapping equal the
//     bytes a Pread of the same range returns; a mapping taken before a
//     write is a stable snapshot (the write never mutates it in place);
//     and a mapping taken after the write sees the new bytes. The
//     mapping is read-only and unmappable only through PreadUnmap.
//   - pread-refines-sequential-read: Pread over the whole file agrees
//     byte-for-byte with the logged Seek+Read path — the cache never
//     invents, loses, or reorders bytes, in either kernel mode — and the
//     two crossings agree: bytes delivered into the caller's buffer
//     (sys.DestHandler) equal bytes returned in an encoded reply by a
//     handler without that capability.
func registerPCacheObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "core", Name: "read-mapping-refines-copy", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				if err := readMappingWorkload(r, Config{Cores: 2, MemBytes: 256 << 20}); err != nil {
					return fmt.Errorf("monolithic: %w", err)
				}
				return readMappingWorkload(r, Config{Cores: 4, Shards: 4, MemBytes: 256 << 20})
			}},
		verifier.Obligation{Module: "core", Name: "pread-refines-sequential-read", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				if err := preadAgreementWorkload(r, Config{Cores: 2, MemBytes: 256 << 20}); err != nil {
					return fmt.Errorf("monolithic: %w", err)
				}
				return preadAgreementWorkload(r, Config{Cores: 4, Shards: 4, MemBytes: 256 << 20})
			}},
	)
}

// readMappingWorkload drives one process through the full zero-copy
// lifecycle and checks every refinement step listed above, finishing
// with an exit that still holds a live mapping (the teardown path must
// unpin it rather than free the cache's frame).
func readMappingWorkload(r *rand.Rand, cfg Config) error {
	const fileLen = 3*pcache.PageSize + 713
	s, err := Boot(cfg)
	if err != nil {
		return err
	}
	initSys, err := s.Init()
	if err != nil {
		return err
	}
	contents := make([]byte, fileLen)
	r.Read(contents)
	fd, e := initSys.Open("/zc.dat", fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		return fmt.Errorf("open: %v", e)
	}
	if _, e := initSys.Write(fd, contents); e != sys.EOK {
		return fmt.Errorf("write: %v", e)
	}
	if e := initSys.Close(fd); e != sys.EOK {
		return fmt.Errorf("close: %v", e)
	}

	fresh := make([]byte, pcache.PageSize)
	r.Read(fresh)
	errs := make(chan error, 1)
	if _, err := s.Run(initSys, "zcopy", func(p *Process) int {
		errs <- func() error {
			fd, e := p.Sys.Open("/zc.dat", fs.ORdWr)
			if e != sys.EOK {
				return fmt.Errorf("open: %v", e)
			}
			// Copying tier: Pread agrees with the authoritative contents.
			buf := make([]byte, fileLen)
			if n, e := p.Sys.Pread(fd, buf, 0); e != sys.EOK || n != fileLen {
				return fmt.Errorf("pread full: n=%d %v", n, e)
			}
			if !bytes.Equal(buf, contents) {
				return fmt.Errorf("pread bytes diverge from written contents")
			}
			// Zero-copy tier: map page 0 and compare against the copy path.
			va, sz, e := p.Sys.PreadMap(fd, 0)
			if e != sys.EOK {
				return fmt.Errorf("pread_map: %v", e)
			}
			if sz != pcache.PageSize {
				return fmt.Errorf("mapped page valid bytes = %d, want %d", sz, pcache.PageSize)
			}
			mapped := make([]byte, sz)
			if e := p.Sys.MemRead(va, mapped); e != sys.EOK {
				return fmt.Errorf("memread mapping: %v", e)
			}
			if !bytes.Equal(mapped, contents[:pcache.PageSize]) {
				return fmt.Errorf("mapped bytes diverge from pread bytes")
			}
			// The mapping is read-only and not a munmap target.
			if e := p.Sys.MemWrite(va, []byte{1}); e != sys.EFAULT {
				return fmt.Errorf("memwrite through read mapping: %v, want EFAULT", e)
			}
			if e := p.Sys.MUnmap(va); e != sys.EINVAL {
				return fmt.Errorf("munmap of pread mapping: %v, want EINVAL", e)
			}
			// Overwrite page 0 through the logged write path.
			if _, e := p.Sys.Seek(fd, 0, fs.SeekSet); e != sys.EOK {
				return fmt.Errorf("seek: %v", e)
			}
			if _, e := p.Sys.Write(fd, fresh); e != sys.EOK {
				return fmt.Errorf("overwrite: %v", e)
			}
			// The old mapping is a stable snapshot of the pre-write bytes.
			if e := p.Sys.MemRead(va, mapped); e != sys.EOK {
				return fmt.Errorf("memread snapshot: %v", e)
			}
			if !bytes.Equal(mapped, contents[:pcache.PageSize]) {
				return fmt.Errorf("snapshot mutated by a later write")
			}
			// A fresh Pread and a fresh mapping both see the new bytes.
			if n, e := p.Sys.Pread(fd, buf[:pcache.PageSize], 0); e != sys.EOK || n != pcache.PageSize {
				return fmt.Errorf("pread after write: n=%d %v", n, e)
			}
			if !bytes.Equal(buf[:pcache.PageSize], fresh) {
				return fmt.Errorf("pread after write served stale bytes")
			}
			va2, sz2, e := p.Sys.PreadMap(fd, 0)
			if e != sys.EOK || sz2 != pcache.PageSize {
				return fmt.Errorf("pread_map after write: sz=%d %v", sz2, e)
			}
			mapped2 := make([]byte, sz2)
			if e := p.Sys.MemRead(va2, mapped2); e != sys.EOK {
				return fmt.Errorf("memread fresh mapping: %v", e)
			}
			if !bytes.Equal(mapped2, fresh) {
				return fmt.Errorf("fresh mapping served stale bytes")
			}
			// Unmap both; a second unmap of the same VA is EINVAL.
			if e := p.Sys.PreadUnmap(va); e != sys.EOK {
				return fmt.Errorf("pread_unmap old: %v", e)
			}
			if e := p.Sys.PreadUnmap(va); e != sys.EINVAL {
				return fmt.Errorf("double pread_unmap: %v, want EINVAL", e)
			}
			if e := p.Sys.PreadUnmap(va2); e != sys.EOK {
				return fmt.Errorf("pread_unmap fresh: %v", e)
			}
			// Exit while holding a live mapping of page 1: teardown must
			// route the frame back to the cache, not the allocator.
			if _, _, e := p.Sys.PreadMap(fd, pcache.PageSize); e != sys.EOK {
				return fmt.Errorf("pread_map page 1: %v", e)
			}
			return nil
		}()
		return 0
	}); err != nil {
		return err
	}
	if err := <-errs; err != nil {
		return err
	}
	s.WaitAll()
	if _, e := initSys.Wait(); e != sys.EOK {
		return fmt.Errorf("wait: %v", e)
	}
	// The exiting process's mapping must have been unpinned: no cache
	// reports live mappings once every process is gone.
	for i, c := range s.pcaches {
		if _, _, mapped := c.Stats(); mapped != 0 {
			return fmt.Errorf("cache %d still holds %d mappings after exit", i, mapped)
		}
	}
	if err := initSys.ContractErr(); err != nil {
		return err
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		return err
	}
	return s.CheckKernelInvariants()
}

// replyOnly hides every optional capability of the handler it wraps:
// a Sys over it crosses with encoded replies only.
type replyOnly struct{ h sys.Handler }

func (p replyOnly) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	return p.h.Syscall(frame, payload)
}

// preadAgreementWorkload writes a multi-page file, then checks random
// (offset, length) Preads — including page-straddling and beyond-EOF
// shapes — against the logged Seek+Read path byte for byte, through the
// destination crossing and through the encoded reply.
func preadAgreementWorkload(r *rand.Rand, cfg Config) error {
	const fileLen = 5*pcache.PageSize + 119
	s, err := Boot(cfg)
	if err != nil {
		return err
	}
	initSys, err := s.Init()
	if err != nil {
		return err
	}
	contents := make([]byte, fileLen)
	r.Read(contents)
	fd, e := initSys.Open("/agree.dat", fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		return fmt.Errorf("open: %v", e)
	}
	if _, e := initSys.Write(fd, contents); e != sys.EOK {
		return fmt.Errorf("write: %v", e)
	}
	h, err := s.newHandler(s.pickCore())
	if err != nil {
		return err
	}
	reply := sys.NewSys(initSys.PID(), replyOnly{h})
	for i := 0; i < 40; i++ {
		off := uint64(r.Intn(fileLen + pcache.PageSize)) // may start beyond EOF
		ln := 1 + r.Intn(2*pcache.PageSize)
		if i%4 == 0 { // the whole-page shape that fills in place
			off, ln = uint64(r.Intn(fileLen/pcache.PageSize+2))*pcache.PageSize, pcache.PageSize
		}
		pbuf := bytes.Repeat([]byte{0xee}, ln)
		pn, e := initSys.Pread(fd, pbuf, off)
		if e != sys.EOK {
			return fmt.Errorf("pread off=%d len=%d: %v", off, ln, e)
		}
		for _, b := range pbuf[pn:] {
			if b != 0xee {
				return fmt.Errorf("pread(off=%d,len=%d) = %d bytes wrote the caller's buffer past its count", off, ln, pn)
			}
		}
		qbuf := make([]byte, ln)
		qn, e := reply.Pread(fd, qbuf, off)
		if e != sys.EOK {
			return fmt.Errorf("reply-form pread off=%d len=%d: %v", off, ln, e)
		}
		if pn != qn || !bytes.Equal(pbuf[:pn], qbuf[:qn]) {
			return fmt.Errorf("pread(off=%d,len=%d) into the buffer = %d bytes diverges from the encoded reply = %d bytes", off, ln, pn, qn)
		}
		if _, e := initSys.Seek(fd, int64(off), fs.SeekSet); e != sys.EOK {
			return fmt.Errorf("seek: %v", e)
		}
		rbuf := make([]byte, ln)
		rn, e := initSys.Read(fd, rbuf)
		if e != sys.EOK {
			return fmt.Errorf("read: %v", e)
		}
		if pn != rn || !bytes.Equal(pbuf[:pn], rbuf[:rn]) {
			return fmt.Errorf("pread(off=%d,len=%d) = %d bytes diverges from seek+read = %d bytes", off, ln, pn, rn)
		}
	}
	if e := initSys.Close(fd); e != sys.EOK {
		return fmt.Errorf("close: %v", e)
	}
	if err := initSys.ContractErr(); err != nil {
		return err
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		return err
	}
	return s.CheckKernelInvariants()
}
