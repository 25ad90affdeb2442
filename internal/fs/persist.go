package fs

import (
	"errors"
	"fmt"
	"sort"

	"github.com/verified-os/vnros/internal/marshal"
)

// BlockStore is the persistence substrate: a disk of fixed-size blocks.
// internal/dev's disk driver implements it over the simulated disk
// device; MemBlockStore implements it in memory for tests.
type BlockStore interface {
	BlockSize() int
	NumBlocks() uint64
	ReadBlock(i uint64, p []byte) error
	WriteBlock(i uint64, p []byte) error
}

// Persistence errors.
var (
	ErrTooBig     = errors.New("fs: snapshot exceeds device capacity")
	ErrBadImage   = errors.New("fs: corrupt filesystem image")
	ErrNoSnapshot = errors.New("fs: device holds no snapshot")

	// Block-access errors, shared by every BlockStore implementation
	// (MemBlockStore here, the disk driver in internal/dev, the
	// journal's views in internal/wal): a block index past the device
	// and a buffer that is not exactly one block are programming
	// errors surfaced as typed values, never silently tolerated.
	ErrBlockRange = errors.New("fs: block index out of range")
	ErrBlockSize  = errors.New("fs: buffer length != block size")
)

// snapshotMagic identifies a valid image header.
const snapshotMagic = 0x76_6e_72_6f_73_66_73_31 // "vnrosfs1"

// Save serializes the filesystem into the block store as one atomic
// snapshot using A/B slots: the payload is written into the slot NOT
// referenced by the current header, and the header (with checksum and
// slot pointer) is written last. A crash at any point leaves the
// previous snapshot fully intact and loadable; a torn header or payload
// is detected by magic/checksum. Journaled crash consistency between
// snapshots is provided by internal/wal, which checkpoints through
// SaveStamped.
func Save(f *FS, d BlockStore) error { return SaveStamped(f, d, 0) }

// SaveStamped is Save with a caller-owned stamp recorded in the header.
// internal/wal stores the journal sequence number the snapshot covers,
// making the snapshot header the checkpoint's single commit point:
// recovery reads the stamp back via LoadStamped and replays only the
// journal records after it. Images written by Save carry stamp 0, and
// pre-stamp images read back as stamp 0 (the header block's padding
// was already zero).
func SaveStamped(f *FS, d BlockStore, stamp uint64) error {
	e := marshal.NewEncoder(nil)
	// Deterministic inode order for reproducible images.
	inos := make([]Ino, 0, len(f.inodes))
	for ino := range f.inodes {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	e.U64(uint64(f.next))
	e.U64(uint64(len(inos)))
	for _, ino := range inos {
		n := f.inodes[ino]
		e.U64(uint64(n.Ino))
		e.U8(uint8(n.Kind))
		e.U64(uint64(n.Nlink))
		// The same length-prefixed byte field a flat file was, holes as
		// zeroes.
		c := n.file.Peek()
		c.ReadAt(e.BytesFieldBuf(int(c.Len())), 0)
		names := make([]string, 0, len(n.Children))
		for name := range n.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		e.U64(uint64(len(names)))
		for _, name := range names {
			e.String(name)
			e.U64(uint64(n.Children[name]))
		}
	}
	payload := e.Bytes()

	bs := d.BlockSize()
	blocks := (len(payload) + bs - 1) / bs
	// A snapshot needs the header block plus two payload slots; anything
	// smaller is a geometry error, typed so callers slicing a shared
	// device into journal regions (internal/walshard) can bounds-check
	// uniformly. The guard also keeps slotCap's unsigned subtraction from
	// underflowing on a zero-block store.
	if d.NumBlocks() < 3 {
		return fmt.Errorf("%w: snapshot store has %d blocks, need >= 3", ErrBlockRange, d.NumBlocks())
	}
	slotCap := (d.NumBlocks() - 1) / 2 // blocks per A/B slot
	if uint64(blocks) > slotCap {
		return fmt.Errorf("%w (%w): %d bytes into %d-block slots", ErrTooBig, ErrBlockRange, len(payload), slotCap)
	}
	// Pick the slot the current header does NOT point at.
	slot := uint64(0)
	if cur, err := readHeader(d); err == nil {
		slot = 1 - cur.slot
	}
	base := 1 + slot*slotCap
	buf := make([]byte, bs)
	for i := 0; i < blocks; i++ {
		lo := i * bs
		hi := lo + bs
		if hi > len(payload) {
			hi = len(payload)
		}
		copy(buf, payload[lo:hi])
		for j := hi - lo; j < bs; j++ {
			buf[j] = 0
		}
		if err := d.WriteBlock(base+uint64(i), buf); err != nil {
			return err
		}
	}
	// Header: magic, slot, length, checksum, stamp — written last (the
	// commit point).
	h := marshal.NewEncoder(nil)
	h.U64(snapshotMagic).U64(slot).U64(uint64(len(payload))).U64(marshal.Fletcher64(payload)).U64(stamp)
	hb := make([]byte, bs)
	copy(hb, h.Bytes())
	return d.WriteBlock(0, hb)
}

// header is the decoded snapshot header.
type header struct {
	slot   uint64
	length uint64
	sum    uint64
	stamp  uint64
}

func readHeader(d BlockStore) (header, error) {
	bs := d.BlockSize()
	hb := make([]byte, bs)
	if err := d.ReadBlock(0, hb); err != nil {
		return header{}, err
	}
	h := marshal.NewDecoder(hb[:40])
	magic, slot, length, sum, stamp := h.U64(), h.U64(), h.U64(), h.U64(), h.U64()
	if h.Err() != nil || magic != snapshotMagic || slot > 1 {
		return header{}, ErrNoSnapshot
	}
	return header{slot: slot, length: length, sum: sum, stamp: stamp}, nil
}

// Load reconstructs a filesystem from the block store.
func Load(d BlockStore) (*FS, error) {
	f, _, err := LoadStamped(d)
	return f, err
}

// LoadStamped is Load returning the header stamp as well (the journal
// sequence number a wal checkpoint recorded; see SaveStamped).
func LoadStamped(d BlockStore) (*FS, uint64, error) {
	bs := d.BlockSize()
	if d.NumBlocks() < 3 {
		return nil, 0, fmt.Errorf("%w: snapshot store has %d blocks, need >= 3", ErrBlockRange, d.NumBlocks())
	}
	hd, err := readHeader(d)
	if err != nil {
		return nil, 0, err
	}
	length, sum := hd.length, hd.sum
	blocks := (int(length) + bs - 1) / bs
	slotCap := (d.NumBlocks() - 1) / 2
	if uint64(blocks) > slotCap {
		return nil, 0, fmt.Errorf("%w (%w): header claims %d bytes", ErrBadImage, ErrBlockRange, length)
	}
	base := 1 + hd.slot*slotCap
	payload := make([]byte, blocks*bs)
	for i := 0; i < blocks; i++ {
		if err := d.ReadBlock(base+uint64(i), payload[i*bs:(i+1)*bs]); err != nil {
			return nil, 0, err
		}
	}
	payload = payload[:length]
	if marshal.Fletcher64(payload) != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBadImage)
	}

	dec := marshal.NewDecoder(payload)
	f := &FS{inodes: make(map[Ino]*Inode)}
	f.next = Ino(dec.U64())
	count := dec.U64()
	if dec.Err() != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadImage, dec.Err())
	}
	for i := uint64(0); i < count; i++ {
		n := &Inode{
			Ino:   Ino(dec.U64()),
			Kind:  Kind(dec.U8()),
			Nlink: int(dec.U64()),
		}
		// The pages are sliced out of payload, which this load owns.
		n.file.adopt(dec.BytesFieldRef())
		nc := dec.U64()
		if dec.Err() != nil {
			return nil, 0, fmt.Errorf("%w: inode %d: %v", ErrBadImage, i, dec.Err())
		}
		if n.Kind == KindDir {
			n.Children = make(map[string]Ino, nc)
		} else if nc != 0 {
			return nil, 0, fmt.Errorf("%w: file with children", ErrBadImage)
		}
		for j := uint64(0); j < nc; j++ {
			name := dec.String()
			child := Ino(dec.U64())
			if dec.Err() != nil {
				return nil, 0, fmt.Errorf("%w: dirent: %v", ErrBadImage, dec.Err())
			}
			n.Children[name] = child
		}
		if _, dup := f.inodes[n.Ino]; dup {
			return nil, 0, fmt.Errorf("%w: duplicate inode %d", ErrBadImage, n.Ino)
		}
		f.inodes[n.Ino] = n
	}
	if err := dec.Finish(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	if _, ok := f.inodes[RootIno]; !ok {
		return nil, 0, fmt.Errorf("%w: no root inode", ErrBadImage)
	}
	if err := f.CheckInvariant(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	return f, hd.stamp, nil
}

// Equal reports whether two filesystems have identical observable
// state (used by the persistence round-trip obligation).
func Equal(a, b *FS) bool {
	if len(a.inodes) != len(b.inodes) || a.next != b.next {
		return false
	}
	for ino, n := range a.inodes {
		m := b.inodes[ino]
		if m == nil || m.Kind != n.Kind || m.Nlink != n.Nlink ||
			!m.file.Peek().Equal(n.file.Peek()) || len(m.Children) != len(n.Children) {
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

// MemBlockStore is an in-memory BlockStore for tests and the quickstart
// example.
type MemBlockStore struct {
	bs     int
	blocks [][]byte
}

// NewMemBlockStore creates a store with n blocks of size bs.
func NewMemBlockStore(bs int, n uint64) *MemBlockStore {
	m := &MemBlockStore{bs: bs, blocks: make([][]byte, n)}
	return m
}

// BlockSize implements BlockStore.
func (m *MemBlockStore) BlockSize() int { return m.bs }

// NumBlocks implements BlockStore.
func (m *MemBlockStore) NumBlocks() uint64 { return uint64(len(m.blocks)) }

// CheckBlockAccess validates a block index and buffer length against a
// store's geometry, returning the typed block-access errors. Every
// BlockStore implementation (here, internal/dev, internal/wal) guards
// its entry points with it so the whole storage stack rejects malformed
// accesses identically.
func CheckBlockAccess(d BlockStore, op string, i uint64, p []byte) error {
	if i >= d.NumBlocks() {
		return fmt.Errorf("%w: %s block %d of %d", ErrBlockRange, op, i, d.NumBlocks())
	}
	if len(p) != d.BlockSize() {
		return fmt.Errorf("%w: %s block %d with %d bytes, block size %d",
			ErrBlockSize, op, i, len(p), d.BlockSize())
	}
	return nil
}

// SubStore exposes blocks [base, base+n) of d as a device of its own —
// the one block-range view: the journal's snapshot region (internal/wal,
// base 0) and a shard's journal region (internal/walshard). Accesses are
// checked against the view's geometry, so a client of the view cannot
// reach a neighbouring region.
func SubStore(d BlockStore, base, n uint64) BlockStore {
	return &subStore{d: d, base: base, n: n}
}

type subStore struct {
	d       BlockStore
	base, n uint64
}

func (v *subStore) BlockSize() int    { return v.d.BlockSize() }
func (v *subStore) NumBlocks() uint64 { return v.n }

func (v *subStore) ReadBlock(i uint64, p []byte) error {
	if err := CheckBlockAccess(v, "read", i, p); err != nil {
		return err
	}
	return v.d.ReadBlock(v.base+i, p)
}

func (v *subStore) WriteBlock(i uint64, p []byte) error {
	if err := CheckBlockAccess(v, "write", i, p); err != nil {
		return err
	}
	return v.d.WriteBlock(v.base+i, p)
}

// ReadBlock implements BlockStore.
func (m *MemBlockStore) ReadBlock(i uint64, p []byte) error {
	if err := CheckBlockAccess(m, "read", i, p); err != nil {
		return err
	}
	if m.blocks[i] == nil {
		for j := range p {
			p[j] = 0
		}
		return nil
	}
	copy(p, m.blocks[i])
	return nil
}

// WriteBlock implements BlockStore.
func (m *MemBlockStore) WriteBlock(i uint64, p []byte) error {
	if err := CheckBlockAccess(m, "write", i, p); err != nil {
		return err
	}
	if m.blocks[i] == nil {
		m.blocks[i] = make([]byte, m.bs)
	}
	copy(m.blocks[i], p)
	return nil
}

// ForEachBlock calls fn with every written block in ascending order,
// stopping at the first error. fn must not retain or modify p.
func (m *MemBlockStore) ForEachBlock(fn func(i uint64, p []byte) error) error {
	for i, b := range m.blocks {
		if b == nil {
			continue
		}
		if err := fn(uint64(i), b); err != nil {
			return err
		}
	}
	return nil
}
