package core

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/sys"
)

// TestShardedBatchRunRounds counts combiner rounds where they are
// visible without a clock: each shard's log tail. A ring_sync-shaped
// batch — one seek, sixteen writes on the same descriptor, one sync — is
// one run, so it appends two entries to the submitter's process shard
// (lock, unlock) and one to the inode's owner (the run); per-op routing
// appended 33 and 16.
func TestShardedBatchRunRounds(t *testing.T) {
	s, err := Boot(Config{Cores: 2, Shards: 2, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	initSys, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	fd, e := initSys.Open("/ring", sys.OCreate|sys.ORdWr)
	if e != sys.EOK {
		t.Fatal(e)
	}
	if _, e := initSys.Write(fd, make([]byte, 16<<10)); e != sys.EOK {
		t.Fatal(e)
	}
	st, e := initSys.Stat("/ring")
	if e != sys.EOK {
		t.Fatal(e)
	}
	tails := func() (out [2][2]uint64) {
		for i := 0; i < 2; i++ {
			out[0][i] = s.procNR.Shard(i).Tail()
			out[1][i] = s.fsNR.Shard(i).Tail()
		}
		return out
	}

	ops := []sys.Op{sys.OpSeek(fd, 4096, fs.SeekSet)}
	for i := 0; i < 16; i++ {
		ops = append(ops, sys.OpWrite(fd, bytes.Repeat([]byte{byte(i + 1)}, 256)))
	}
	ops = append(ops, sys.OpSync())
	before := tails()
	comps, e := initSys.SubmitWait(ops)
	after := tails()
	if e != sys.EOK || len(comps) != len(ops) {
		t.Fatalf("submit: %v, %d completions", e, len(comps))
	}
	for i, c := range comps {
		if c.Errno != sys.EOK || (i >= 1 && i <= 16 && c.Val != 256) {
			t.Fatalf("completion %d (%s): %v val=%d", i, sys.OpName(c.Op), c.Errno, c.Val)
		}
	}
	var want [2][2]uint64
	want[0][s.ProcShardOf(initSys.PID())] = 2
	want[1][s.FsShardOf(st.Ino)] = 1
	for g, name := range []string{"proc", "fs"} {
		for i := 0; i < 2; i++ {
			if got := after[g][i] - before[g][i]; got != want[g][i] {
				t.Errorf("%s shard %d: log tail advanced by %d, want %d", name, i, got, want[g][i])
			}
		}
	}
	if err := initSys.ContractErr(); err != nil {
		t.Error(err)
	}
}

// TestBatchRunIsAtomicPerDescriptor: two handles of one process share a
// descriptor. One submits runs — seek to the run's own slot, then
// sixteen writes of the run's marker byte — while the other keeps
// seeking the shared descriptor far away. The descriptor stays locked
// from before a run's first entry until its final cursor is published,
// so no foreign seek lands between two of its entries: every run's bytes
// are contiguous in its slot, and nothing is ever written out where the
// other handle points the cursor. (Routed per op, the seeks land between
// a batch's writes within a few runs.) Run under -race.
func TestBatchRunIsAtomicPerDescriptor(t *testing.T) {
	const runs, writes, size = 200, 16, 64
	const slot = writes * size
	const far = 1 << 20
	s, err := Boot(Config{Cores: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	initSys, err := s.Init()
	if err != nil {
		t.Fatal(err)
	}
	// Unchecked handles: a batch's contract check brackets the batch with
	// a view pair and so assumes nobody else moves its descriptors — the
	// interference this test is made of.
	var hs [2]*sys.Sys
	for i := range hs {
		if hs[i], err = s.RawSysOn(initSys.PID(), i); err != nil {
			t.Fatal(err)
		}
	}
	fd, e := hs[0].Open("/shared", sys.OCreate|sys.ORdWr)
	if e != sys.EOK {
		t.Fatal(e)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		for !done.Load() {
			if _, e := hs[1].Seek(fd, far+int64(r.Intn(far)), fs.SeekSet); e != sys.EOK {
				t.Errorf("interfering seek: %v", e)
				return
			}
		}
	}()
	for i := 0; i < runs; i++ {
		ops := []sys.Op{sys.OpSeek(fd, int64(i)*slot, fs.SeekSet)}
		for w := 0; w < writes; w++ {
			ops = append(ops, sys.OpWrite(fd, bytes.Repeat([]byte{byte(1 + i%255)}, size)))
		}
		comps, e := hs[0].SubmitWait(ops)
		if e != sys.EOK {
			t.Fatalf("run %d: %v", i, e)
		}
		for k, c := range comps {
			if c.Errno != sys.EOK {
				t.Fatalf("run %d op %d: %v", i, k, c.Errno)
			}
		}
	}
	done.Store(true)
	wg.Wait()

	st, e := initSys.Stat("/shared")
	if e != sys.EOK {
		t.Fatal(e)
	}
	if st.Size != runs*slot {
		t.Fatalf("file is %d bytes, want %d: a run's write landed where the other handle had seeked", st.Size, runs*slot)
	}
	got := make([]byte, st.Size)
	if n, e := initSys.Pread(fd, got, 0); e != sys.EOK || n != st.Size {
		t.Fatalf("pread: %d, %v", n, e)
	}
	for i := 0; i < runs; i++ {
		if !bytes.Equal(got[i*slot:(i+1)*slot], bytes.Repeat([]byte{byte(1 + i%255)}, slot)) {
			t.Fatalf("run %d's bytes are not contiguous in its slot", i)
		}
	}
	if err := s.CheckReplicaAgreement(); err != nil {
		t.Error(err)
	}
}

// TestShardedBatchRefinesMonolithicBatch runs the VC
// core:sharded-batch-refines-monolithic-batch over more seeds than one
// verifier pass draws.
func TestShardedBatchRefinesMonolithicBatch(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		if err := shardBatchRefinementCheck(rand.New(rand.NewSource(seed))); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
