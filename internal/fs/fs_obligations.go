package fs

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/verifier"
)

// RegisterObligations registers the filesystem verification conditions:
// the paper's read_spec (plus write/seek specs) checked against the
// implementation on randomized traces, structural invariants, and the
// persistence round trip.
func RegisterObligations(g *verifier.Registry) {
	registerMoreObligations(g)
	registerEvenMoreObligations(g)
	registerViewObligations(g)
	g.Register(
		verifier.Obligation{Module: "fs", Name: "read-spec-refinement", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error { return checkRWSpecTrace(r, 600) }},
		verifier.Obligation{Module: "fs", Name: "tree-invariant-random", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error { return checkTreeInvariant(r, 800) }},
		verifier.Obligation{Module: "fs", Name: "persist-round-trip", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				f := randomFS(r, 200)
				d := NewMemBlockStore(512, 65536)
				if err := Save(f, d); err != nil {
					return err
				}
				g2, err := Load(d)
				if err != nil {
					return err
				}
				if !Equal(f, g2) {
					return fmt.Errorf("loaded filesystem differs from saved")
				}
				return nil
			}},
		verifier.Obligation{Module: "fs", Name: "persist-detects-corruption", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				f := randomFS(r, 50)
				d := NewMemBlockStore(512, 4096)
				if err := Save(f, d); err != nil {
					return err
				}
				// Flip one payload byte.
				blk := make([]byte, 512)
				if err := d.ReadBlock(1, blk); err != nil {
					return err
				}
				blk[r.Intn(512)] ^= 0x40
				if err := d.WriteBlock(1, blk); err != nil {
					return err
				}
				if _, err := Load(d); err == nil {
					return fmt.Errorf("corrupt image loaded successfully")
				}
				return nil
			}},
		verifier.Obligation{Module: "fs", Name: "torn-save-keeps-old-snapshot", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// Save image A; then perform a save of image B that
				// "crashes" before the header write. Load must return A.
				fa := randomFS(r, 30)
				d := NewMemBlockStore(512, 65536)
				if err := Save(fa, d); err != nil {
					return err
				}
				fb := randomFS(r, 60)
				torn := &tornStore{BlockStore: d, failHeader: true}
				if err := Save(fb, torn); err == nil {
					return fmt.Errorf("torn save reported success")
				}
				// B's payload went to the other A/B slot and the header
				// was never flipped, so A must load back intact.
				got, err := Load(d)
				if err != nil {
					return fmt.Errorf("load after torn save: %w", err)
				}
				if !Equal(fa, got) {
					return fmt.Errorf("torn save clobbered the previous snapshot")
				}
				return nil
			}},
		verifier.Obligation{Module: "fs", Name: "fd-lock-required", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				t := NewFDTable(New())
				fd, err := t.Open("/f", OCreate|ORdWr)
				if err != nil {
					return err
				}
				if _, err := t.Read(fd, make([]byte, 4)); err == nil {
					return fmt.Errorf("read without descriptor lock succeeded")
				}
				if _, err := t.Write(fd, []byte("x")); err == nil {
					return fmt.Errorf("write without descriptor lock succeeded")
				}
				return nil
			}},
	)
}

// tornStore fails the header write (block 0), simulating a crash after
// payload blocks but before the commit point.
type tornStore struct {
	BlockStore
	failHeader bool
}

func (t *tornStore) WriteBlock(i uint64, p []byte) error {
	if t.failHeader && i == 0 {
		return fmt.Errorf("simulated crash before header write")
	}
	return t.BlockStore.WriteBlock(i, p)
}

// randomFS builds a filesystem with random structure and contents.
func randomFS(r *rand.Rand, ops int) *FS {
	f := New()
	dirs := []string{"/"}
	files := []string{}
	for i := 0; i < ops; i++ {
		switch r.Intn(6) {
		case 0:
			d := dirs[r.Intn(len(dirs))]
			p := fmt.Sprintf("%s/d%d", d, i)
			if _, err := f.Mkdir(p); err == nil {
				dirs = append(dirs, p)
			}
		case 1, 2:
			d := dirs[r.Intn(len(dirs))]
			p := fmt.Sprintf("%s/f%d", d, i)
			if ino, err := f.Create(p); err == nil {
				files = append(files, p)
				data := make([]byte, r.Intn(2000))
				r.Read(data)
				_, _ = f.WriteAt(ino, uint64(r.Intn(100)), data)
			}
		case 3:
			if len(files) > 0 {
				j := r.Intn(len(files))
				if err := f.Unlink(files[j]); err == nil {
					files = append(files[:j], files[j+1:]...)
				}
			}
		case 4:
			if len(files) > 0 {
				src := files[r.Intn(len(files))]
				p := fmt.Sprintf("/l%d", i)
				if err := f.Link(src, p); err == nil {
					files = append(files, p)
				}
			}
		case 5:
			if len(files) > 0 {
				j := r.Intn(len(files))
				p := fmt.Sprintf("/r%d", i)
				if err := f.Rename(files[j], p); err == nil {
					files[j] = p
				}
			}
		}
	}
	return f
}

// checkTreeInvariant runs randomFS-style workloads and validates the
// invariant continuously.
func checkTreeInvariant(r *rand.Rand, ops int) error {
	f := randomFS(r, ops)
	return f.CheckInvariant()
}

// checkRWSpecTrace drives the FD layer with random reads, writes and
// seeks, checking every transition against the §3 spec relations via
// the abstraction function.
func checkRWSpecTrace(r *rand.Rand, ops int) error {
	t := NewFDTable(New())
	var fds []FD
	for i := 0; i < 4; i++ {
		fd, err := t.Open(fmt.Sprintf("/file%d", i), OCreate|ORdWr)
		if err != nil {
			return err
		}
		fds = append(fds, fd)
	}
	for i := 0; i < ops; i++ {
		fd := fds[r.Intn(len(fds))]
		if err := t.Lock(fd); err != nil {
			return err
		}
		pre := AbstractFDs(t)
		switch r.Intn(3) {
		case 0:
			buf := make([]byte, r.Intn(64))
			n, err := t.Read(fd, buf)
			if err != nil {
				return fmt.Errorf("op %d read: %w", i, err)
			}
			post := AbstractFDs(t)
			if err := ReadSpec(pre, post, fd, uint64(len(buf)), buf, n); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		case 1:
			data := make([]byte, r.Intn(64))
			r.Read(data)
			n, err := t.Write(fd, data)
			if err != nil {
				return fmt.Errorf("op %d write: %w", i, err)
			}
			post := AbstractFDs(t)
			if err := WriteSpec(pre, post, fd, data, n); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		default:
			off := int64(r.Intn(200)) - 50
			whence := r.Intn(3)
			res, err := t.Seek(fd, off, whence)
			if err == nil {
				post := AbstractFDs(t)
				if err := SeekSpec(pre, post, fd, off, whence, res); err != nil {
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
		}
		if err := t.Unlock(fd); err != nil {
			return err
		}
	}
	return nil
}
