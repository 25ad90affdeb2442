package fs

// This file is the descriptor/filesystem support for the sharded kernel
// (internal/core's §4.1 composition): when descriptor tables live on a
// process-state shard and file contents on a filesystem shard, the open
// protocol installs descriptors by inode (the namespace step already
// ran on the filesystem group), and contents are read by inode.

// Attach installs a descriptor for an already-resolved inode, without
// consulting the table's own filesystem — the second step of the
// cross-shard open protocol, after the namespace shard has resolved or
// created the inode. It mirrors Open's descriptor installation exactly.
func (t *FDTable) Attach(ino Ino, flags int) FD {
	fd := t.next
	t.next++
	t.open[fd] = &OpenFile{Ino: ino, Flags: flags}
	return fd
}

// Contents returns a file's data as an immutable zero-copy snapshot
// (see PageFile.View), or ok=false if the inode does not exist.
func (f *FS) Contents(ino Ino) (Pages, bool) {
	n := f.inodes[ino]
	if n == nil {
		return Pages{}, false
	}
	return n.file.View(), true
}

// InodesWithData lists the inodes holding file contents — on a
// filesystem shard, these must all be owned by that shard (the
// shard-isolation obligation): the namespace is replicated everywhere,
// the data lives only with its owner.
func (f *FS) InodesWithData() []Ino {
	var out []Ino
	for ino, n := range f.inodes {
		if n.Kind == KindFile && n.file.Size() > 0 {
			out = append(out, ino)
		}
	}
	return out
}

// NamespaceEqual reports whether two filesystems agree on everything
// except file contents: same inode numbering, tree structure, kinds and
// link counts. Filesystem shards replicate the namespace by applying
// every namespace mutation in the same (broadcast) order, so their
// trees must match even though each shard stores data only for the
// inodes it owns.
func NamespaceEqual(a, b *FS) bool {
	if len(a.inodes) != len(b.inodes) || a.next != b.next {
		return false
	}
	for ino, n := range a.inodes {
		m := b.inodes[ino]
		if m == nil || m.Kind != n.Kind || m.Nlink != n.Nlink || len(m.Children) != len(n.Children) {
			return false
		}
		for name, ci := range n.Children {
			if m.Children[name] != ci {
				return false
			}
		}
	}
	return true
}
