// Package fs implements the in-memory filesystem of the simulated OS —
// the "filesystem (persistence, sharing)" component from the paper's §1
// list, with the §3 read_spec example implemented literally in
// fs_spec.go and checked against this implementation.
//
// The filesystem is a sequential data structure (inode table + directory
// tree + open-file table); the kernel replicates it with NR (§4.1).
// Persistence is provided by snapshotting into a block store
// (persist.go) over the marshal wire format.
package fs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/verified-os/vnros/internal/obs"
)

// Ino is an inode number.
type Ino uint64

// RootIno is the root directory's inode number.
const RootIno Ino = 1

// Kind distinguishes inode types.
type Kind uint8

// Inode kinds.
const (
	KindFile Kind = iota
	KindDir
)

func (k Kind) String() string {
	if k == KindDir {
		return "dir"
	}
	return "file"
}

// Errors (errno analogs).
var (
	ErrNotExist    = errors.New("fs: no such file or directory")
	ErrExist       = errors.New("fs: file exists")
	ErrNotDir      = errors.New("fs: not a directory")
	ErrIsDir       = errors.New("fs: is a directory")
	ErrNotEmpty    = errors.New("fs: directory not empty")
	ErrInval       = errors.New("fs: invalid argument")
	ErrNameTooLong = errors.New("fs: name too long")
)

// MaxNameLen bounds a single path component.
const MaxNameLen = 255

// Inode is one filesystem object.
type Inode struct {
	Ino      Ino
	Kind     Kind
	file     PageFile       // file contents (pages.go)
	Children map[string]Ino // directory entries
	Nlink    int
}

// FS is the filesystem state. It is a sequential structure: no internal
// locking (NR or the kernel lock discipline provides exclusion).
type FS struct {
	inodes map[Ino]*Inode
	next   Ino

	// obsShard stripes this instance's kstat updates (one FS per
	// kernel replica; fs.* kstats are apply-side, counted once per
	// replica per logged op).
	obsShard uint32

	// jrn, when set, receives every successful mutation (journal.go).
	jrn Journal

	// inv, when set, receives data-visibility events for the page
	// cache (inval.go).
	inv Invalidator
}

// New returns a filesystem containing only the root directory.
func New() *FS {
	f := &FS{inodes: make(map[Ino]*Inode), next: RootIno + 1, obsShard: obs.NextShard()}
	f.inodes[RootIno] = &Inode{Ino: RootIno, Kind: KindDir, Children: make(map[string]Ino), Nlink: 1}
	return f
}

// get returns the inode or ErrNotExist.
func (f *FS) get(ino Ino) (*Inode, error) {
	n := f.inodes[ino]
	if n == nil {
		return nil, fmt.Errorf("%w: inode %d", ErrNotExist, ino)
	}
	return n, nil
}

// SplitPath normalizes an absolute path into components, resolving "."
// and "..".
func SplitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("%w: path %q not absolute", ErrInval, path)
	}
	var comps []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(comps) > 0 {
				comps = comps[:len(comps)-1]
			}
		default:
			if len(c) > MaxNameLen {
				return nil, fmt.Errorf("%w: %q", ErrNameTooLong, c)
			}
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// Lookup resolves an absolute path to an inode number.
func (f *FS) Lookup(path string) (Ino, error) {
	comps, err := SplitPath(path)
	if err != nil {
		return 0, err
	}
	cur := RootIno
	for _, c := range comps {
		n, err := f.get(cur)
		if err != nil {
			return 0, err
		}
		if n.Kind != KindDir {
			return 0, fmt.Errorf("%w: %q", ErrNotDir, c)
		}
		child, ok := n.Children[c]
		if !ok {
			return 0, fmt.Errorf("%w: %q in path %q", ErrNotExist, c, path)
		}
		cur = child
	}
	return cur, nil
}

// lookupParent resolves the parent directory of path and the final
// component name.
func (f *FS) lookupParent(path string) (*Inode, string, error) {
	comps, err := SplitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(comps) == 0 {
		return nil, "", fmt.Errorf("%w: cannot operate on root", ErrInval)
	}
	cur := RootIno
	for _, c := range comps[:len(comps)-1] {
		n, err := f.get(cur)
		if err != nil {
			return nil, "", err
		}
		if n.Kind != KindDir {
			return nil, "", fmt.Errorf("%w: %q", ErrNotDir, c)
		}
		child, ok := n.Children[c]
		if !ok {
			return nil, "", fmt.Errorf("%w: %q", ErrNotExist, c)
		}
		cur = child
	}
	parent, err := f.get(cur)
	if err != nil {
		return nil, "", err
	}
	if parent.Kind != KindDir {
		return nil, "", fmt.Errorf("%w: parent of %q", ErrNotDir, path)
	}
	return parent, comps[len(comps)-1], nil
}

// Create makes a new empty file, failing if the name exists.
func (f *FS) Create(path string) (Ino, error) {
	parent, name, err := f.lookupParent(path)
	if err != nil {
		return 0, err
	}
	if _, ok := parent.Children[name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrExist, path)
	}
	ino := f.next
	f.next++
	f.inodes[ino] = &Inode{Ino: ino, Kind: KindFile, Nlink: 1}
	parent.Children[name] = ino
	f.metaOp(ino)
	f.record(Mutation{Kind: MutCreate, Path: path})
	return ino, nil
}

// metaOp records one namespace mutation in the kstats.
func (f *FS) metaOp(ino Ino) {
	obs.FSMetaOps.Add(f.obsShard, 1)
	obs.KernelTrace.Emit(obs.KindFSMeta, uint64(f.obsShard), uint64(ino))
}

// Mkdir makes a new directory.
func (f *FS) Mkdir(path string) (Ino, error) {
	parent, name, err := f.lookupParent(path)
	if err != nil {
		return 0, err
	}
	if _, ok := parent.Children[name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrExist, path)
	}
	ino := f.next
	f.next++
	f.inodes[ino] = &Inode{Ino: ino, Kind: KindDir, Children: make(map[string]Ino), Nlink: 1}
	parent.Children[name] = ino
	f.metaOp(ino)
	f.record(Mutation{Kind: MutMkdir, Path: path})
	return ino, nil
}

// Unlink removes a file (not a directory).
func (f *FS) Unlink(path string) error {
	parent, name, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	ino, ok := parent.Children[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	n, err := f.get(ino)
	if err != nil {
		return err
	}
	if n.Kind == KindDir {
		return fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	delete(parent.Children, name)
	n.Nlink--
	if n.Nlink <= 0 {
		delete(f.inodes, ino)
		// The inode is gone; its cached pages are dead weight (inode
		// numbers are never reused, so they are harmless but useless).
		f.invalidateIno(ino)
	}
	f.metaOp(ino)
	f.record(Mutation{Kind: MutUnlink, Path: path})
	return nil
}

// Rmdir removes an empty directory.
func (f *FS) Rmdir(path string) error {
	parent, name, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	ino, ok := parent.Children[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	n, err := f.get(ino)
	if err != nil {
		return err
	}
	if n.Kind != KindDir {
		return fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	if len(n.Children) != 0 {
		return fmt.Errorf("%w: %q", ErrNotEmpty, path)
	}
	delete(parent.Children, name)
	delete(f.inodes, ino)
	f.metaOp(ino)
	f.record(Mutation{Kind: MutRmdir, Path: path})
	return nil
}

// Link creates a hard link newpath -> the file at oldpath.
func (f *FS) Link(oldpath, newpath string) error {
	ino, err := f.Lookup(oldpath)
	if err != nil {
		return err
	}
	n, err := f.get(ino)
	if err != nil {
		return err
	}
	if n.Kind == KindDir {
		return fmt.Errorf("%w: cannot hard-link directory", ErrIsDir)
	}
	parent, name, err := f.lookupParent(newpath)
	if err != nil {
		return err
	}
	if _, ok := parent.Children[name]; ok {
		return fmt.Errorf("%w: %q", ErrExist, newpath)
	}
	parent.Children[name] = ino
	n.Nlink++
	f.metaOp(ino)
	f.record(Mutation{Kind: MutLink, Path: oldpath, Path2: newpath})
	return nil
}

// Rename moves oldpath to newpath (replacing an existing file there,
// POSIX-style, but never replacing a directory).
func (f *FS) Rename(oldpath, newpath string) error {
	op, oname, err := f.lookupParent(oldpath)
	if err != nil {
		return err
	}
	ino, ok := op.Children[oname]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, oldpath)
	}
	np, nname, err := f.lookupParent(newpath)
	if err != nil {
		return err
	}
	if existing, ok := np.Children[nname]; ok {
		if existing == ino {
			return nil
		}
		en, err := f.get(existing)
		if err != nil {
			return err
		}
		if en.Kind == KindDir {
			return fmt.Errorf("%w: %q", ErrIsDir, newpath)
		}
		en.Nlink--
		if en.Nlink <= 0 {
			delete(f.inodes, existing)
			f.invalidateIno(existing)
		}
	}
	// Moving a directory under itself would detach a subtree; compare
	// normalized components so "." and ".." cannot smuggle a cycle in.
	if n, _ := f.get(ino); n != nil && n.Kind == KindDir {
		oc, _ := SplitPath(oldpath)
		nc, _ := SplitPath(newpath)
		if len(nc) > len(oc) {
			prefix := true
			for i := range oc {
				if nc[i] != oc[i] {
					prefix = false
					break
				}
			}
			if prefix {
				return fmt.Errorf("%w: cannot move directory under itself", ErrInval)
			}
		}
	}
	np.Children[nname] = ino
	delete(op.Children, oname)
	f.metaOp(ino)
	f.record(Mutation{Kind: MutRename, Path: oldpath, Path2: newpath})
	return nil
}

// Stat describes an inode.
type Stat struct {
	Ino   Ino
	Kind  Kind
	Size  uint64
	Nlink int
}

// StatPath stats the object at path.
func (f *FS) StatPath(path string) (Stat, error) {
	ino, err := f.Lookup(path)
	if err != nil {
		return Stat{}, err
	}
	return f.StatIno(ino)
}

// StatIno stats an inode.
func (f *FS) StatIno(ino Ino) (Stat, error) {
	n, err := f.get(ino)
	if err != nil {
		return Stat{}, err
	}
	return Stat{Ino: n.Ino, Kind: n.Kind, Size: n.file.Size(), Nlink: n.Nlink}, nil
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name string
	Ino  Ino
	Kind Kind
}

// ReadDir lists a directory in name order.
func (f *FS) ReadDir(path string) ([]DirEntry, error) {
	ino, err := f.Lookup(path)
	if err != nil {
		return nil, err
	}
	n, err := f.get(ino)
	if err != nil {
		return nil, err
	}
	if n.Kind != KindDir {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	out := make([]DirEntry, 0, len(n.Children))
	for name, ci := range n.Children {
		c, err := f.get(ci)
		if err != nil {
			return nil, err
		}
		out = append(out, DirEntry{Name: name, Ino: ci, Kind: c.Kind})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReadAt reads up to len(p) bytes from the file at offset off,
// returning the count (0 at or past EOF).
func (f *FS) ReadAt(ino Ino, off uint64, p []byte) (int, error) {
	t0 := obs.Start()
	// Record the latency on every outcome: error returns (bad inode,
	// directory read) are part of the read path's latency distribution,
	// and skipping them would make error-heavy workloads look faster
	// than they are.
	defer obs.FSReadLatency.Since(f.obsShard, t0)
	n, err := f.get(ino)
	if err != nil {
		return 0, err
	}
	if n.Kind != KindFile {
		return 0, fmt.Errorf("%w: inode %d", ErrIsDir, ino)
	}
	return n.file.Peek().ReadAt(p, off), nil
}

// WriteAt writes p at offset off; a gap past the old size reads as
// zeroes, as POSIX requires, and stays holes. If a view holds a page the
// write touches, the write goes to a private clone of that page — the
// pre-image write_spec's frame clause compares against stays intact in
// every view that holds it.
func (f *FS) WriteAt(ino Ino, off uint64, p []byte) (int, error) {
	t0 := obs.Start()
	n, err := f.get(ino)
	if err != nil {
		return 0, err
	}
	if n.Kind != KindFile {
		return 0, fmt.Errorf("%w: inode %d", ErrIsDir, ino)
	}
	if len(p) == 0 {
		// POSIX write(2): a zero-length write has no other results — it
		// must not grow the file to off, journal, or invalidate.
		return 0, nil
	}
	oldSize := n.file.Size()
	cloned, err := n.file.WriteAt(off, p)
	if err != nil {
		return 0, fmt.Errorf("inode %d: %w", ino, err)
	}
	if cloned.Pages > 0 {
		obs.FSCowClones.Add(f.obsShard, uint64(cloned.Pages))
		obs.FSCowCloneBytes.Add(f.obsShard, uint64(cloned.Bytes))
	}
	obs.FSWriteLatency.Since(f.obsShard, t0)
	f.record(Mutation{Kind: MutWrite, Ino: ino, Off: off, Data: p})
	// Kill cached pages across the whole changed window: not just
	// [off, end) but also the sparse gap (oldSize, off) that this write
	// opened as zeroes — a cached short page there used to read as EOF
	// and now must not.
	f.invalidateRange(ino, min(off, oldSize), off+uint64(len(p)))
	return len(p), nil
}

// Truncate sets the file size, zero-extending or discarding.
func (f *FS) Truncate(ino Ino, size uint64) error {
	n, err := f.get(ino)
	if err != nil {
		return err
	}
	if n.Kind != KindFile {
		return fmt.Errorf("%w: inode %d", ErrIsDir, ino)
	}
	oldSize := n.file.Size()
	if err := n.file.Truncate(size); err != nil {
		return fmt.Errorf("inode %d: %w", ino, err)
	}
	f.record(Mutation{Kind: MutTruncate, Ino: ino, Size: size})
	if size != oldSize {
		f.invalidateRange(ino, min(size, oldSize), max(size, oldSize))
	}
	return nil
}

// NumInodes returns the number of live inodes.
func (f *FS) NumInodes() int { return len(f.inodes) }

// CheckInvariant validates structural consistency: every child points
// at a live inode; every inode (except root) is referenced by exactly
// Nlink directory entries; directories are a tree (each dir has exactly
// one parent reference and no cycles); no orphans.
func (f *FS) CheckInvariant() error {
	refs := make(map[Ino]int)
	dirRefs := make(map[Ino]int)
	for ino, n := range f.inodes {
		if n.Ino != ino {
			return fmt.Errorf("fs: inode %d records number %d", ino, n.Ino)
		}
		if n.Kind == KindDir && n.Children == nil {
			return fmt.Errorf("fs: dir %d has nil children", ino)
		}
		for name, ci := range n.Children {
			if name == "" || strings.Contains(name, "/") {
				return fmt.Errorf("fs: dir %d has bad entry name %q", ino, name)
			}
			c := f.inodes[ci]
			if c == nil {
				return fmt.Errorf("fs: dir %d entry %q dangles to %d", ino, name, ci)
			}
			refs[ci]++
			if c.Kind == KindDir {
				dirRefs[ci]++
			}
		}
	}
	for ino, n := range f.inodes {
		if ino == RootIno {
			continue
		}
		if n.Kind == KindDir {
			if dirRefs[ino] != 1 {
				return fmt.Errorf("fs: dir %d has %d parents", ino, dirRefs[ino])
			}
		} else if refs[ino] != n.Nlink {
			return fmt.Errorf("fs: file %d nlink %d but %d references", ino, n.Nlink, refs[ino])
		}
		if refs[ino] == 0 {
			return fmt.Errorf("fs: inode %d orphaned", ino)
		}
	}
	// Reachability (tree-ness) from root.
	seen := map[Ino]bool{RootIno: true}
	var walk func(Ino) error
	walk = func(ino Ino) error {
		n := f.inodes[ino]
		for _, ci := range n.Children {
			c := f.inodes[ci]
			if c.Kind == KindDir {
				if seen[ci] {
					return fmt.Errorf("fs: directory cycle at %d", ci)
				}
				seen[ci] = true
				if err := walk(ci); err != nil {
					return err
				}
			} else {
				seen[ci] = true
			}
		}
		return nil
	}
	if err := walk(RootIno); err != nil {
		return err
	}
	for ino := range f.inodes {
		if !seen[ino] {
			return fmt.Errorf("fs: inode %d unreachable from root", ino)
		}
	}
	return nil
}
