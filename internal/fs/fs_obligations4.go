package fs

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/verifier"
)

// registerViewObligations: the copy-on-write contract behind the §3
// view() abstraction. AbstractFDs, AbstractFD and Contents hand out the
// inode's own array; this obligation is what makes that sound.
func registerViewObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "fs", Name: "view-is-immutable-snapshot", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error { return checkViewIsImmutableSnapshot(r, 300) }},
	)
}

// checkViewIsImmutableSnapshot interleaves every kind of view with
// every kind of mutation on a few files reached through aliased
// descriptors, and after each mutation compares every view taken so far
// against a deep copy made when it was taken. A twin filesystem applies
// the same mutations and is never viewed: the two must stay Equal and
// serialize to identical images, so the shared flag is invisible to
// everything but WriteAt's decision to clone — which is also why
// replicas agree when only one of them served views.
func checkViewIsImmutableSnapshot(r *rand.Rand, steps int) error {
	const nFiles = 3
	viewed, twin := NewFDTable(New()), NewFDTable(New())
	var inos [nFiles]Ino
	var fds [2 * nFiles]FD // fds[2i] and fds[2i+1] alias file i
	for i := 0; i < nFiles; i++ {
		path := fmt.Sprintf("/v%d", i)
		for j := 0; j < 2; j++ {
			fd, err := viewed.Open(path, OCreate|ORdWr)
			if err != nil {
				return err
			}
			tfd, err := twin.Open(path, OCreate|ORdWr)
			if err != nil {
				return err
			}
			if tfd != fd {
				return fmt.Errorf("twin descriptor %d != %d", tfd, fd)
			}
			fds[2*i+j] = fd
		}
		of, err := viewed.Get(fds[2*i])
		if err != nil {
			return err
		}
		inos[i] = of.Ino
	}

	type snapshot struct {
		view, want []byte
		what       string
	}
	var snaps []snapshot
	take := func(what string, view []byte) {
		snaps = append(snaps, snapshot{view: view, want: append([]byte(nil), view...), what: what})
	}
	// mutate applies one mutation to both filesystems.
	mutate := func(f func(t *FDTable) error) error {
		if err := f(viewed); err != nil {
			return err
		}
		return f(twin)
	}
	writeAt := func(ino Ino, off uint64, p []byte) error {
		return mutate(func(t *FDTable) error {
			_, err := t.FS().WriteAt(ino, off, p)
			return err
		})
	}

	for step := 0; step < steps; step++ {
		i := r.Intn(nFiles)
		ino := inos[i]
		st, err := viewed.FS().StatIno(ino)
		if err != nil {
			return err
		}
		size := st.Size
		payload := make([]byte, 1+r.Intn(64))
		r.Read(payload)
		what := ""
		switch r.Intn(12) {
		case 0:
			for fd, f := range AbstractFDs(viewed).Files {
				take(fmt.Sprintf("step %d AbstractFDs fd %d", step, fd), f.Contents)
			}
			continue
		case 1:
			fd := fds[r.Intn(len(fds))]
			f, ok := AbstractFD(viewed, fd)
			if !ok {
				return fmt.Errorf("AbstractFD: fd %d not open", fd)
			}
			take(fmt.Sprintf("step %d AbstractFD fd %d", step, fd), f.Contents)
			continue
		case 2:
			c, ok := viewed.FS().Contents(ino)
			if !ok {
				return fmt.Errorf("Contents: inode %d missing", ino)
			}
			take(fmt.Sprintf("step %d Contents ino %d", step, ino), c)
			continue
		case 3, 4:
			what = "overwrite"
			if size == 0 {
				continue
			}
			off := uint64(r.Intn(int(size)))
			if off+uint64(len(payload)) > size {
				payload = payload[:size-off]
			}
			err = writeAt(ino, off, payload)
		case 5:
			what = "grow"
			off := size
			if size > 0 {
				off = size - uint64(r.Intn(int(min64(size, 8))))
			}
			err = writeAt(ino, off, payload)
		case 6:
			what = "sparse gap"
			err = writeAt(ino, size+uint64(1+r.Intn(100)), payload)
		case 7:
			what = "zero-length write"
			err = writeAt(ino, size+uint64(r.Intn(50)), nil)
		case 8:
			// The case a missing clone would get wrong: the array keeps
			// its old capacity, so the overwrite lands in bytes an earlier
			// view still covers.
			what = "shrink then overwrite inside the old capacity"
			if size < 2 {
				continue
			}
			cut := uint64(1 + r.Intn(int(size-1)))
			if err = mutate(func(t *FDTable) error { return t.FS().Truncate(ino, cut) }); err != nil {
				return err
			}
			off := uint64(r.Intn(int(cut)))
			if off+uint64(len(payload)) > cut {
				payload = payload[:cut-off]
			}
			err = writeAt(ino, off, payload)
		case 9:
			what = "truncate grow"
			grown := size + uint64(1+r.Intn(200))
			err = mutate(func(t *FDTable) error { return t.FS().Truncate(ino, grown) })
		default:
			what = "write through an aliased descriptor"
			fd := fds[2*i+r.Intn(2)]
			seek := int64(r.Intn(int(size) + 1))
			err = mutate(func(t *FDTable) error {
				if _, err := t.Seek(fd, seek, SeekSet); err != nil {
					return err
				}
				if err := t.Lock(fd); err != nil {
					return err
				}
				if _, err := t.Write(fd, payload); err != nil {
					return err
				}
				return t.Unlock(fd)
			})
		}
		if err != nil {
			return fmt.Errorf("step %d %s: %w", step, what, err)
		}
		for _, s := range snaps {
			if !bytes.Equal(s.view, s.want) {
				return fmt.Errorf("view from %s changed under step %d (%s on inode %d)", s.what, step, what, ino)
			}
		}
	}

	if !Equal(viewed.FS(), twin.FS()) {
		return fmt.Errorf("viewed filesystem diverged from its never-viewed twin")
	}
	var images [2]*MemBlockStore
	for k, t := range []*FDTable{viewed, twin} {
		images[k] = NewMemBlockStore(512, 4096)
		if err := SaveStamped(t.FS(), images[k], 7); err != nil {
			return err
		}
	}
	a, b := make([]byte, 512), make([]byte, 512)
	for blk := uint64(0); blk < images[0].NumBlocks(); blk++ {
		if err := images[0].ReadBlock(blk, a); err != nil {
			return err
		}
		if err := images[1].ReadBlock(blk, b); err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("snapshot images differ at block %d: the shared flag leaked into SaveStamped", blk)
		}
	}
	return nil
}
