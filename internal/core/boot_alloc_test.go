package core

import (
	"bytes"
	"slices"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/sys"
)

// opaqueStore hides everything but fs.BlockStore: an image that cannot
// enumerate its written blocks and is read block by block.
type opaqueStore struct{ fs.BlockStore }

// TestBootAllocationBudget pins "a boot costs what it uses": bytes
// allocated across one Boot call (runtime.MemStats.TotalAlloc, no wall
// clock) for a default boot, a partitioned journaled boot, and a journaled
// restore boot — which also materialises exactly the image's non-zero
// blocks on the new disk, whatever kind of store the image is. The
// verifier and every kernel workload's setup are mostly boots, so this is
// the tier-1 pin on verify_all's alloc_bytes_per_op (18.9 MB, 70.8 MB and
// 58.9 MB when each NR log was a 65 536-slot ring, the disk a 65 536-entry
// table, and the image copied through the block driver).
func TestBootAllocationBudget(t *testing.T) {
	boot := func(name string, cfg Config, budget uint64) *System {
		t.Helper()
		var s *System
		got := allocPerRequest(1, func() {
			var err error
			if s, err = Boot(cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		t.Logf("%s: Boot allocates %d KiB", name, got>>10)
		if got > budget {
			t.Errorf("%s: Boot allocates %d bytes, budget %d", name, got, budget)
		}
		return s
	}
	boot("default", Config{Cores: 2}, 1<<20)
	boot("shards=2 wal", Config{Cores: 2, Shards: 2, WAL: true}, 3<<20)

	// The system whose disk is restored: one 40 KiB file, synced.
	src, err := Boot(Config{Cores: 2, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := src.Init()
	if err != nil {
		t.Fatal(err)
	}
	contents := bytes.Repeat([]byte("0123456789abcdef"), 40<<10/16)
	if e := writeFile(h, "/kept", contents); e != sys.EOK {
		t.Fatal(e)
	}
	if e := h.Sync(); e != sys.EOK {
		t.Fatal(e)
	}
	full := freezeDisk(t, src) // every block written, zeros included
	sparse := fs.NewMemBlockStore(full.BlockSize(), full.NumBlocks())
	var nonZero []uint64
	blk, zero := make([]byte, full.BlockSize()), make([]byte, full.BlockSize())
	for i := uint64(0); i < full.NumBlocks(); i++ {
		if err := full.ReadBlock(i, blk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blk, zero) {
			nonZero = append(nonZero, i)
			if err := sparse.WriteBlock(i, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(nonZero) < 40<<10/full.BlockSize() {
		t.Fatalf("the image holds %d non-zero blocks, fewer than the file", len(nonZero))
	}
	for _, image := range []struct {
		name string
		disk fs.BlockStore
	}{
		{"restore from a block driver", src.BlockDev},
		{"restore from a sparse store", sparse},
		{"restore from a fully written store", full},
		{"restore from an opaque store", opaqueStore{sparse}},
	} {
		s := boot(image.name, Config{Cores: 2, WAL: true, RestoreFS: true, BootDisk: image.disk}, 1280<<10)
		var written []uint64
		if err := s.BlockDev.ForEachBlock(func(i uint64, _ []byte) error {
			written = append(written, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(written, nonZero) {
			t.Errorf("%s: %d blocks materialised on the new disk, the image has %d non-zero blocks",
				image.name, len(written), len(nonZero))
		}
		rh, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		if got, e := readAll(rh, "/kept"); e != sys.EOK || !bytes.Equal(got, contents) {
			t.Errorf("%s: /kept reads back %d bytes %v, want %d", image.name, len(got), e, len(contents))
		}
	}
}
