package walshard

import (
	"fmt"
	"sync"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/verifier"
	"github.com/verified-os/vnros/internal/wal"
)

const (
	testBlockSize = 512
	testRegion    = 160
	testJournal   = 48
)

func newTestGroup(t *testing.T, nshards int) (*Group, *fs.MemBlockStore) {
	t.Helper()
	disk := fs.NewMemBlockStore(testBlockSize, uint64(stampSlots+nshards*testRegion))
	g, err := New(disk, nshards, testJournal)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Format(); err != nil {
		t.Fatal(err)
	}
	return g, disk
}

// wireShards returns one journal-wired FS per shard.
func wireShards(g *Group) []*fs.FS {
	fss := make([]*fs.FS, g.NumShards())
	for i := range fss {
		fss[i] = fs.New()
		fss[i].SetJournal(g.Journal(i))
	}
	return fss
}

// broadcast applies a namespace mutation to every shard, like the
// sharded kernel's nsBroadcast.
func broadcast(t *testing.T, fss []*fs.FS, m fs.Mutation) {
	t.Helper()
	for i, f := range fss {
		if err := f.Apply(m); err != nil {
			t.Fatalf("broadcast %s %q on shard %d: %v", m.Kind, m.Path, i, err)
		}
	}
}

func reopen(t *testing.T, disk *fs.MemBlockStore, nshards int) (*Group, []*fs.FS) {
	t.Helper()
	g, err := New(disk, nshards, testJournal)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*fs.FS, nshards)
	for i := range recs {
		recs[i], err = g.RecoverShard(i)
		if err != nil {
			t.Fatalf("recover shard %d: %v", i, err)
		}
	}
	return g, recs
}

// TestPrepareWithoutCommitRollsBack is the headline recovery edge case:
// a prepare chunk lands on shard 0 (round stamped, never committed),
// and recovery must roll the round back on ALL shards — including the
// shard whose prepare never reached its journal.
func TestPrepareWithoutCommitRollsBack(t *testing.T) {
	g, disk := newTestGroup(t, 2)
	fss := wireShards(g)

	// Batch 1: committed on both shards.
	broadcast(t, fss, fs.Mutation{Kind: fs.MutCreate, Path: "/a"}) // ino 2, owner 0
	broadcast(t, fss, fs.Mutation{Kind: fs.MutCreate, Path: "/b"}) // ino 3, owner 1
	if err := fss[0].Apply(fs.Mutation{Kind: fs.MutWrite, Ino: 2, Data: []byte("committed")}); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	golden := []*fs.FS{fs.New(), fs.New()}
	for i := range golden {
		for _, m := range []fs.Mutation{{Kind: fs.MutCreate, Path: "/a"}, {Kind: fs.MutCreate, Path: "/b"}} {
			if err := golden[i].Apply(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := golden[0].Apply(fs.Mutation{Kind: fs.MutWrite, Ino: 2, Data: []byte("committed")}); err != nil {
		t.Fatal(err)
	}

	// Batch 2: recorded on both shards, but only shard 0's prepare is
	// flushed — the coordinator "crashed" before shard 1's prepare and
	// before the commit stamp.
	if err := fss[0].Apply(fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: 9, Data: []byte(" torn")}); err != nil {
		t.Fatal(err)
	}
	if err := fss[1].Apply(fs.Mutation{Kind: fs.MutWrite, Ino: 3, Data: []byte("torn too")}); err != nil {
		t.Fatal(err)
	}
	if err := g.Journal(0).FlushRound(g.CommittedRound() + 1); err != nil {
		t.Fatal(err)
	}

	// Reboot twice: rollback must happen and must be idempotent.
	for pass := 0; pass < 2; pass++ {
		g2, recs := reopen(t, disk, 2)
		for i := range recs {
			if !fs.Equal(recs[i], golden[i]) {
				t.Fatalf("pass %d: shard %d did not roll back to the committed batch", pass, i)
			}
		}
		if got := g2.CommittedRound(); got != 1 {
			t.Fatalf("pass %d: committed round %d, want 1", pass, got)
		}
	}

	// The journal must keep working after a rollback: commit a new
	// round on the reopened group and recover it.
	g3, recs := reopen(t, disk, 2)
	for i := range recs {
		recs[i].SetJournal(g3.Journal(i))
	}
	if err := recs[0].Apply(fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: 9, Data: []byte(" again")}); err != nil {
		t.Fatal(err)
	}
	if err := g3.Commit(); err != nil {
		t.Fatal(err)
	}
	_, recs2 := reopen(t, disk, 2)
	want, _ := recs[0].Contents(2)
	got, ok := recs2[0].Contents(2)
	if !ok || !got.Equal(want) {
		t.Fatalf("post-rollback commit lost: got %q want %q", got.Bytes(), want.Bytes())
	}
}

// TestEmptyShardParticipates covers a cross-shard batch where one
// shard has nothing pending: it must not block the round, and its
// (empty) journal must recover cleanly against a stamp that is far
// ahead of anything it has logged.
func TestEmptyShardParticipates(t *testing.T) {
	g, disk := newTestGroup(t, 3)
	fss := wireShards(g)

	broadcast(t, fss, fs.Mutation{Kind: fs.MutCreate, Path: "/only"}) // ino 2, owner 2
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	// Several rounds touching only shard 2 (ino 2's owner): shards 0
	// and 1 never flush again.
	for r := 0; r < 5; r++ {
		m := fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: uint64(r * 4), Data: []byte("data")}
		if err := fss[2].Apply(m); err != nil {
			t.Fatal(err)
		}
		if err := g.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.CommittedRound(); got != 6 {
		t.Fatalf("committed round %d, want 6", got)
	}

	_, recs := reopen(t, disk, 3)
	for i := range recs {
		if !fs.NamespaceEqual(recs[i], fss[i]) {
			t.Fatalf("shard %d namespace lost", i)
		}
	}
	want, _ := fss[2].Contents(2)
	got, ok := recs[2].Contents(2)
	if !ok || !got.Equal(want) {
		t.Fatalf("owner shard contents: got %q want %q", got.Bytes(), want.Bytes())
	}
	for _, i := range []int{0, 1} {
		if n := len(recs[i].InodesWithData()); n != 0 {
			t.Fatalf("empty-journal shard %d recovered %d data inodes", i, n)
		}
	}
}

// TestCheckpointRacesGroupCommit hammers concurrent commits, explicit
// checkpoints, and the background worker under -race: per-shard writer
// goroutines append to their own files while checkpoints compact the
// committed prefix mid-stream. Afterwards everything committed must
// survive recovery.
func TestCheckpointRacesGroupCommit(t *testing.T) {
	const nshards = 2
	mem := fs.NewMemBlockStore(testBlockSize, uint64(stampSlots+nshards*testRegion))
	// FaultStore with injection disabled = a mutex-guarded store, so
	// concurrent shard flushes exercise the device path safely.
	disk := wal.NewFaultStore(mem, wal.FaultCrash, -1)
	g, err := New(disk, nshards, testJournal)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Format(); err != nil {
		t.Fatal(err)
	}
	fss := wireShards(g)
	// Namespace setup up front; the racing phase uses content writes
	// only, so each shard's FS has a single mutator goroutine.
	for i := 0; i < 4; i++ {
		broadcast(t, fss, fs.Mutation{Kind: fs.MutCreate, Path: fmt.Sprintf("/f%d", i)}) // inos 2..5
	}
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, nshards+1)
	for s := 0; s < nshards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				for ino := fs.Ino(2); ino <= 5; ino++ {
					if int(ino)%nshards != s {
						continue
					}
					m := fs.Mutation{Kind: fs.MutWrite, Ino: ino, Off: uint64(r % 7 * 16), Data: []byte("racing-roundxx")}
					if err := fss[s].Apply(m); err != nil {
						errCh <- err
						return
					}
				}
				if err := g.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 30; r++ {
			if err := g.CheckpointShard(r % nshards); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	g.Drain()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	g.Drain()

	_, recs := reopen(t, mem, nshards)
	for i := range recs {
		if !fs.Equal(recs[i], fss[i]) {
			t.Fatalf("shard %d: recovered state diverges from live state after racing checkpoints", i)
		}
	}
}

// TestBackgroundCheckpointCompacts drives enough committed rounds to
// cross the half-full high-water mark and checks the worker actually
// compacts the log — and that compaction loses nothing.
func TestBackgroundCheckpointCompacts(t *testing.T) {
	g, disk := newTestGroup(t, 2)
	fss := wireShards(g)
	broadcast(t, fss, fs.Mutation{Kind: fs.MutCreate, Path: "/big"}) // ino 2, owner 0
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 3*testBlockSize)
	for i := range blob {
		blob[i] = byte(i)
	}
	for r := 0; r < 12; r++ {
		if err := fss[0].Apply(fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: uint64(r * len(blob)), Data: blob}); err != nil {
			t.Fatal(err)
		}
		if err := g.Commit(); err != nil {
			t.Fatal(err)
		}
		g.Drain()
	}
	j := g.Journal(0)
	if j.TailBlocks()*2 >= j.RecordBlocks() {
		t.Fatalf("background worker never compacted: tail %d of %d", j.TailBlocks(), j.RecordBlocks())
	}
	_, recs := reopen(t, disk, 2)
	for i := range recs {
		if !fs.Equal(recs[i], fss[i]) {
			t.Fatalf("shard %d state lost across background compaction", i)
		}
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 71, Module: "walshard"})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
	if len(rep.Results) < 2 {
		t.Fatalf("only %d walshard VCs ran", len(rep.Results))
	}
}
