package fs

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/verifier"
)

// registerViewObligations: the copy-on-write contract behind the §3
// view() abstraction. AbstractFDs, AbstractFD and Contents hand out the
// inode's own page array; these obligations are what make that sound,
// and what make comparing two views by page identity sound.
func registerViewObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "fs", Name: "view-is-immutable-snapshot", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error { return checkViewIsImmutableSnapshot(r, 300) }},
		verifier.Obligation{Module: "fs", Name: "write-spec-rejects-scribbled-clone", Kind: verifier.KindSafety,
			Check: checkWriteSpecRejectsScribbledClone},
	)
}

// pageBiased returns an offset in [0, limit], on or one byte either
// side of a page boundary half the time.
func pageBiased(r *rand.Rand, limit uint64) uint64 {
	if r.Intn(2) == 0 {
		return uint64(r.Int63n(int64(limit) + 1))
	}
	v := uint64(r.Int63n(int64(limit/PageSize)+1))*PageSize + uint64(r.Intn(3))
	if v == 0 {
		return 0
	}
	return min(v-1, limit)
}

// checkViewIsImmutableSnapshot interleaves every kind of view with
// every kind of mutation on a few multi-page files reached through
// aliased descriptors — offsets and lengths drawn to the page
// boundaries, holes, shrinks to mid-page — and after each mutation
// compares every view taken so far against a deep copy made when it was
// taken. It also holds the copy-on-write to its cost: an overwrite of at
// most a page that follows a view replaces at most two pages, and every
// page outside the window keeps its identity from the view before to
// the view after. A twin filesystem applies the same mutations and is
// never viewed: the two must stay Equal and serialize to identical
// images, so the sharing bookkeeping is invisible to everything but the
// decision to clone — which is also why replicas agree when only one of
// them served views.
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
		view Pages
		want []byte
		what string
	}
	var snaps []snapshot
	// copies holds each inode's deep copy since its last mutation: views
	// taken with no mutation between them are checked against one copy.
	copies := make(map[Ino][]byte)
	take := func(what string, ino Ino, view Pages) {
		if copies[ino] == nil {
			copies[ino] = view.Bytes()
		}
		snaps = append(snaps, snapshot{view: view, want: copies[ino], what: what})
	}
	// intact compares every view taken so far against its deep copy.
	intact := func(after string) error {
		for _, s := range snaps {
			if s.view.Len() != uint64(len(s.want)) || !s.view.EqualBytes(0, s.want) {
				return fmt.Errorf("view from %s changed under %s", s.what, after)
			}
		}
		return nil
	}
	// mutate applies one mutation to both filesystems.
	mutate := func(f func(t *FDTable) error) error {
		clear(copies)
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
		if r.Intn(6) == 0 {
			payload = make([]byte, 1+pageBiased(r, PageSize+1))
		}
		r.Read(payload)
		what := ""
		switch r.Intn(13) {
		case 0:
			for fd, f := range AbstractFDs(viewed).Files {
				take(fmt.Sprintf("step %d AbstractFDs fd %d", step, fd), f.Ino, f.Contents)
			}
			continue
		case 1:
			fd := fds[r.Intn(len(fds))]
			f, ok := AbstractFD(viewed, fd)
			if !ok {
				return fmt.Errorf("AbstractFD: fd %d not open", fd)
			}
			take(fmt.Sprintf("step %d AbstractFD fd %d", step, fd), f.Ino, f.Contents)
			continue
		case 2:
			c, ok := viewed.FS().Contents(ino)
			if !ok {
				return fmt.Errorf("Contents: inode %d missing", ino)
			}
			take(fmt.Sprintf("step %d Contents ino %d", step, ino), ino, c)
			continue
		case 3, 4:
			what = "overwrite"
			if size == 0 {
				continue
			}
			off := pageBiased(r, size-1)
			if off+uint64(len(payload)) > size {
				payload = payload[:size-off]
			}
			err = writeAt(ino, off, payload)
		case 12:
			what = "overwrite of at most a page between two views"
			if size == 0 {
				continue
			}
			off := pageBiased(r, size-1)
			payload = payload[:min(uint64(len(payload)), PageSize, size-off)]
			pre, _ := viewed.FS().Contents(ino)
			take(fmt.Sprintf("step %d pre-overwrite Contents ino %d", step, ino), ino, pre)
			if err = writeAt(ino, off, payload); err != nil {
				break
			}
			post, _ := viewed.FS().Contents(ino)
			first, last := int(off/PageSize), int((off+uint64(len(payload))-1)/PageSize)
			replaced := 0
			for pg := range post.pages {
				if samePage(post.pages[pg], pre.pages[pg]) {
					continue
				}
				if pg < first || pg > last {
					return fmt.Errorf("step %d: page %d lost its identity to a write of pages %d..%d", step, pg, first, last)
				}
				replaced++
			}
			if replaced > 2 {
				return fmt.Errorf("step %d: a %d-byte overwrite replaced %d pages", step, len(payload), replaced)
			}
		case 5:
			what = "grow"
			off := size
			if size > 0 {
				off = size - uint64(r.Intn(int(min64(size, 8))))
			}
			err = writeAt(ino, off, payload)
		case 6:
			what = "sparse gap"
			err = writeAt(ino, size+1+pageBiased(r, PageSize+1), payload)
		case 7:
			what = "zero-length write"
			err = writeAt(ino, size+uint64(r.Intn(50)), nil)
		case 8:
			// The cases a missing clone would get wrong: the shrink clears
			// the tail of a page an earlier view still holds, and the
			// overwrite lands in pages that view still covers.
			what = "shrink to mid-page then overwrite"
			if size < 2 {
				continue
			}
			cut := 1 + pageBiased(r, size-2)
			if err = mutate(func(t *FDTable) error { return t.FS().Truncate(ino, cut) }); err != nil {
				return err
			}
			off := pageBiased(r, cut-1)
			if off+uint64(len(payload)) > cut {
				payload = payload[:cut-off]
			}
			err = writeAt(ino, off, payload)
		case 9:
			what = "truncate grow"
			grown := size + 1 + pageBiased(r, PageSize)
			err = mutate(func(t *FDTable) error { return t.FS().Truncate(ino, grown) })
		default:
			what = "write through an aliased descriptor"
			fd := fds[2*i+r.Intn(2)]
			seek := int64(pageBiased(r, size))
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
		if err := intact(fmt.Sprintf("step %d (%s on inode %d)", step, what, ino)); err != nil {
			return err
		}
	}

	if !Equal(viewed.FS(), twin.FS()) {
		return fmt.Errorf("viewed filesystem diverged from its never-viewed twin")
	}
	var images [2]*MemBlockStore
	for k, t := range []*FDTable{viewed, twin} {
		images[k] = NewMemBlockStore(PageSize, 2048)
		if err := SaveStamped(t.FS(), images[k], 7); err != nil {
			return err
		}
	}
	a, b := make([]byte, PageSize), make([]byte, PageSize)
	for blk := uint64(0); blk < images[0].NumBlocks(); blk++ {
		if err := images[0].ReadBlock(blk, a); err != nil {
			return err
		}
		if err := images[1].ReadBlock(blk, b); err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("snapshot images differ at block %d: the sharing bookkeeping leaked into SaveStamped", blk)
		}
	}
	return nil
}

// checkWriteSpecRejectsScribbledClone is the soundness of the frame
// clause's identity fast path, stated on WriteSpec alone: a page the
// post state holds by a different pointer than the pre state is not a
// violation, and not a pass either — it is compared by its bytes. The
// mutant is an update that, while cloning the page it writes, also
// clones an untouched neighbour and scribbles one byte into the clone.
func checkWriteSpecRejectsScribbledClone(r *rand.Rand) error {
	const fd FD = 3
	for round := 0; round < 8; round++ {
		// Three or four pages, the last one partial; the window lies in
		// the interior so it has a neighbour on both sides.
		nPages := uint64(3 + r.Intn(2))
		old := make([]byte, (nPages-1)*PageSize+1+uint64(r.Intn(PageSize-1)))
		r.Read(old)
		pre := PagesOf(old)
		off := PageSize + pageBiased(r, (nPages-3)*PageSize+PageSize-1)
		data := make([]byte, 1+pageBiased(r, min(PageSize, (nPages-1)*PageSize-off)-1))
		r.Read(data)
		first, last := int(off/PageSize), int((off+uint64(len(data))-1)/PageSize)

		update := func(mutate func(f *PageFile)) (SpecState, SpecState, error) {
			f := FileOf(pre)
			if _, err := f.WriteAt(off, data); err != nil {
				return SpecState{}, SpecState{}, err
			}
			mutate(f)
			return SpecState{Files: map[FD]SpecFile{fd: {Contents: pre, Offset: off, Locked: true}}},
				SpecState{Files: map[FD]SpecFile{fd: {Contents: f.Peek(), Offset: off + uint64(len(data))}}}, nil
		}
		neighbour := first - 1
		if r.Intn(2) == 0 {
			neighbour = last + 1
		}
		reclone := func(f *PageFile) []byte {
			c := append([]byte(nil), f.pages[neighbour]...)
			f.pages[neighbour] = c
			return c
		}

		st, post, err := update(func(*PageFile) {})
		if err == nil {
			err = WriteSpec(st, post, fd, data, uint64(len(data)))
		}
		if err != nil {
			return fmt.Errorf("round %d: honest update rejected: %w", round, err)
		}
		st, post, err = update(func(f *PageFile) { reclone(f) })
		if err == nil {
			err = WriteSpec(st, post, fd, data, uint64(len(data)))
		}
		if err != nil {
			return fmt.Errorf("round %d: a recloned but equal page %d was treated as a violation: %w", round, neighbour, err)
		}
		st, post, err = update(func(f *PageFile) {
			c := reclone(f)
			c[r.Intn(len(c))] ^= 0x5a
		})
		if err != nil {
			return err
		}
		if WriteSpec(st, post, fd, data, uint64(len(data))) == nil {
			return fmt.Errorf("round %d: write_spec accepted a byte scribbled into a fresh clone of page %d beside a write of pages %d..%d",
				round, neighbour, first, last)
		}
	}
	return nil
}
