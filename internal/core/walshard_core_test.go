package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/sys"
)

// TestShardedWALSyncAndRecovery is the composed-system story for the
// per-shard WAL: a sharded, journaled system runs file syscalls and
// Syncs them (a cross-shard group-commit round), "loses power" (the
// System is abandoned), and a second sharded system boots from the
// same disk — every synced file must come back on every shard, and the
// replicas must agree.
func TestShardedWALSyncAndRecovery(t *testing.T) {
	s1, err := Boot(Config{Cores: 4, Shards: 2, WAL: true, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	init1, err := s1.Init()
	if err != nil {
		t.Fatal(err)
	}

	want := make(map[string][]byte)
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/f%d", i)
		payload := bytes.Repeat([]byte{byte('a' + i)}, 600+137*i)
		fd, e := init1.Open(path, fs.OCreate|fs.ORdWr)
		if e != sys.EOK {
			t.Fatalf("open %s: %v", path, e)
		}
		if _, e := init1.Write(fd, payload); e != sys.EOK {
			t.Fatalf("write %s: %v", path, e)
		}
		if e := init1.Close(fd); e != sys.EOK {
			t.Fatalf("close %s: %v", path, e)
		}
		want[path] = payload
	}
	if e := init1.Sync(); e != sys.EOK {
		t.Fatalf("sync: %v", e)
	}
	// An unsynced straggler may survive or vanish; the synced set must
	// survive.
	if fd, e := init1.Open("/straggler", fs.OCreate|fs.ORdWr); e == sys.EOK {
		_, _ = init1.Write(fd, []byte("unsynced"))
		_ = init1.Close(fd)
	}

	// Crash: no SaveFS, no shutdown. Boot a second sharded system from
	// the same disk.
	s2, err := Boot(Config{Cores: 4, Shards: 2, WAL: true, RestoreFS: true,
		BootDisk: s1.BlockDev, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	init2, err := s2.Init()
	if err != nil {
		t.Fatal(err)
	}
	for path, payload := range want {
		fd, e := init2.Open(path, fs.ORdOnly)
		if e != sys.EOK {
			t.Fatalf("open %s after recovery: %v", path, e)
		}
		got := make([]byte, len(payload))
		if n, e := init2.Read(fd, got); e != sys.EOK || int(n) != len(payload) {
			t.Fatalf("read %s after recovery: %d, %v", path, n, e)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s corrupted across sharded recovery", path)
		}
		_ = init2.Close(fd)
	}
	if err := s2.CheckReplicaAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := init2.ContractErr(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedBatchSync covers the ring path: OpSync markers in a
// sharded batch complete EOK (one cross-shard round for the whole
// batch) and the batch's writes are durable.
func TestShardedBatchSync(t *testing.T) {
	s1, err := Boot(Config{Cores: 4, Shards: 2, WAL: true, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	init1, err := s1.Init()
	if err != nil {
		t.Fatal(err)
	}
	fd, e := init1.Open("/ring.dat", fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		t.Fatalf("open: %v", e)
	}
	payload := []byte("ring-synced payload")
	comps, e := init1.SubmitWait([]sys.Op{
		sys.OpWrite(fd, payload),
		sys.OpSync(),
	})
	if e != sys.EOK {
		t.Fatalf("batch: %v", e)
	}
	for i, c := range comps {
		if c.Errno != sys.EOK {
			t.Fatalf("completion %d: %v", i, c.Errno)
		}
	}

	s2, err := Boot(Config{Cores: 4, Shards: 2, WAL: true, RestoreFS: true,
		BootDisk: s1.BlockDev, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	init2, err := s2.Init()
	if err != nil {
		t.Fatal(err)
	}
	fd2, e := init2.Open("/ring.dat", fs.ORdOnly)
	if e != sys.EOK {
		t.Fatalf("open after recovery: %v", e)
	}
	got := make([]byte, len(payload))
	if n, e := init2.Read(fd2, got); e != sys.EOK || int(n) != len(payload) {
		t.Fatalf("read after recovery: %d, %v", n, e)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("ring-synced payload corrupted across recovery")
	}
}

// TestShardedSaveFS: SaveFS on a sharded journaled system checkpoints
// every shard; a reboot restores the state without replaying records.
func TestShardedSaveFS(t *testing.T) {
	s1, err := Boot(Config{Cores: 2, Shards: 2, WAL: true, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	init1, err := s1.Init()
	if err != nil {
		t.Fatal(err)
	}
	fd, e := init1.Open("/saved.dat", fs.OCreate|fs.ORdWr)
	if e != sys.EOK {
		t.Fatalf("open: %v", e)
	}
	if _, e := init1.Write(fd, []byte("checkpointed")); e != sys.EOK {
		t.Fatalf("write: %v", e)
	}
	if e := init1.Close(fd); e != sys.EOK {
		t.Fatalf("close: %v", e)
	}
	if err := s1.SaveFS(); err != nil {
		t.Fatal(err)
	}

	s2, err := Boot(Config{Cores: 2, Shards: 2, WAL: true, RestoreFS: true,
		BootDisk: s1.BlockDev, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	init2, err := s2.Init()
	if err != nil {
		t.Fatal(err)
	}
	fd2, e := init2.Open("/saved.dat", fs.ORdOnly)
	if e != sys.EOK {
		t.Fatalf("open after reboot: %v", e)
	}
	got := make([]byte, len("checkpointed"))
	if n, e := init2.Read(fd2, got); e != sys.EOK || int(n) != len(got) {
		t.Fatalf("read after reboot: %d, %v", n, e)
	}
	if string(got) != "checkpointed" {
		t.Fatalf("restored %q", got)
	}
}

// TestShardedWALCommitsReachSeveralShards pins that a Sync on the
// sharded kernel reaches the cross-shard group committer and that the
// committer spreads the prepare flushes: after concurrent writers, each
// on its own file, have written and synced, the wal.shard.commit stats
// show flushes on at least two shard slots and wal.shard.rounds counts
// the rounds. A Sync that fell back to one journal, or a router that
// sent every inode to one shard, shows up as one slot or zero rounds.
func TestShardedWALCommitsReachSeveralShards(t *testing.T) {
	const writers, rounds = 8, 4
	s, err := Boot(Config{Cores: 4, Shards: 4, WAL: true, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	initSys, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	obs.Reset()
	obs.Enable()
	defer obs.Disable()

	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		if _, err := s.Run(initSys, fmt.Sprintf("writer%d", w), func(p *Process) int {
			fd, e := p.Sys.Open(fmt.Sprintf("/wal%d", w), fs.OCreate|fs.ORdWr)
			if e != sys.EOK {
				errs <- fmt.Errorf("writer %d open: %v", w, e)
				return 1
			}
			for r := 0; r < rounds; r++ {
				if _, e := p.Sys.Write(fd, []byte("sixteen bytes!!!")); e != sys.EOK {
					errs <- fmt.Errorf("writer %d write: %v", w, e)
					return 1
				}
				if e := p.Sys.Sync(); e != sys.EOK {
					errs <- fmt.Errorf("writer %d sync: %v", w, e)
					return 1
				}
			}
			errs <- p.Sys.ContractErr()
			return 0
		}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	s.WaitAll()

	if n := obs.WalShardRounds.Load(); n == 0 {
		t.Error("wal.shard.rounds = 0: Sync is not reaching the group committer")
	}
	if slots := obs.WalShardCommits.Snapshot(); len(slots) < 2 {
		t.Errorf("wal.shard.commit recorded flushes on %d shard slots, want >= 2: %+v", len(slots), slots)
	}
}
