package walshard

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/wal"
)

// loadImage reads a disk image fixture: "blocksize nblocks", then one
// "index hex" line per non-zero block.
func loadImage(t *testing.T, path string) *fs.MemBlockStore {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	var bs int
	var n uint64
	if !sc.Scan() {
		t.Fatalf("%s: empty image", path)
	}
	if _, err := fmt.Sscanf(sc.Text(), "%d %d", &bs, &n); err != nil {
		t.Fatalf("%s: header: %v", path, err)
	}
	disk := fs.NewMemBlockStore(bs, n)
	for sc.Scan() {
		idx, hx, _ := strings.Cut(sc.Text(), " ")
		var i uint64
		if _, err := fmt.Sscanf(idx, "%d", &i); err != nil {
			t.Fatalf("%s: block index %q: %v", path, idx, err)
		}
		blk, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: block %d: %v", path, i, err)
		}
		if err := disk.WriteBlock(i, blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return disk
}

// The images under testdata were written by the commit before the
// checksum became marshal.Fletcher64, whose loop reduced both sums after
// every byte. Every checksum on them — snapshot payloads, journal
// headers, chunk trailers, commit stamps — is the old loop's value, so
// recovering them exactly is the on-disk format not having moved.

// TestRecoversParentJournalImage: one wal journal — a checkpoint
// snapshot, then two flushed chunks, one of them three blocks long.
func TestRecoversParentJournalImage(t *testing.T) {
	disk := loadImage(t, "testdata/parent-journal.img")
	j, err := wal.New(disk, 32)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Recover()
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1300)
	for i := range big {
		big[i] = byte(i*7 + 3)
	}
	want := fs.New()
	for _, m := range []fs.Mutation{
		{Kind: fs.MutCreate, Path: "/a"},
		{Kind: fs.MutWrite, Ino: 2, Data: []byte("snapshotted")},
		{Kind: fs.MutMkdir, Path: "/d"},
		{Kind: fs.MutCreate, Path: "/d/b"},
		{Kind: fs.MutWrite, Ino: 4, Off: 5, Data: big},
		{Kind: fs.MutWrite, Ino: 2, Off: 4, Data: []byte("SHOT")},
		{Kind: fs.MutTruncate, Ino: 4, Size: 1000},
	} {
		if err := want.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if !fs.Equal(got, want) {
		t.Fatal("the parent commit's image does not recover to the filesystem it recorded")
	}
	if seq := j.DurableSeq(); seq != 7 {
		t.Fatalf("durable seq %d, want 7 (3 under the snapshot stamp, 4 replayed)", seq)
	}
}

// TestRecoversParentGroupImage: a two-shard group — round 1 on both
// shards, shard 0 compacted, round 2 on both, then a round-3 prepare on
// shard 1 that never got its stamp and must roll back.
func TestRecoversParentGroupImage(t *testing.T) {
	disk := loadImage(t, "testdata/parent-group.img")
	g, err := New(disk, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1300)
	for i := range big {
		big[i] = byte(i*11 + 5)
	}
	want := [][]fs.Mutation{
		{{Kind: fs.MutCreate, Path: "/a"}, {Kind: fs.MutCreate, Path: "/b"},
			{Kind: fs.MutWrite, Ino: 2, Data: []byte("round one on shard zero")},
			{Kind: fs.MutWrite, Ino: 2, Off: 6, Data: []byte("TWO")}},
		{{Kind: fs.MutCreate, Path: "/a"}, {Kind: fs.MutCreate, Path: "/b"},
			{Kind: fs.MutWrite, Ino: 3, Data: big},
			{Kind: fs.MutTruncate, Ino: 3, Size: 900}},
	}
	for i, ms := range want {
		got, err := g.RecoverShard(i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		w := fs.New()
		for _, m := range ms {
			if err := w.Apply(m); err != nil {
				t.Fatal(err)
			}
		}
		if !fs.Equal(got, w) {
			t.Fatalf("shard %d of the parent commit's image does not recover to its committed state", i)
		}
	}
	if r := g.CommittedRound(); r != 2 {
		t.Fatalf("committed round %d, want 2", r)
	}
}
