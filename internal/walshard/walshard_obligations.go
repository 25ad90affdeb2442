package walshard

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/verifier"
	"github.com/verified-os/vnros/internal/wal"
)

// RegisterObligations registers the cross-shard durability VCs — the
// paper's §4.3 composition step: each shard journal discharges the
// single-log obligations of internal/wal unchanged, so this package
// owes exactly the cross-shard ordering obligations.
//
//   - cross-shard-commit-atomic: for a scripted multi-shard workload, a
//     crash is injected at EVERY block write (dropped/torn/short) and
//     recovery must land all shards on ONE common batch boundary — a
//     torn cross-shard commit rolls back atomically on every shard,
//     and no acknowledged batch is lost. Swept at 1 (monolith-
//     degenerate), 2, and 3 shards.
//   - shard-wal-refines-single-wal: the sharded group recovering any
//     committed batch prefix is observably equal to a single
//     internal/wal journal fed the same mutation sequence — same
//     namespace on every shard, same file contents on each owner.
func RegisterObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "walshard", Name: "cross-shard-commit-atomic", Kind: verifier.KindRefinement,
			Budget: func(r *rand.Rand, budget int) error {
				// The sweep is deterministic, so extra budget widens the
				// shard-count frontier instead of repeating it.
				shardCounts := []int{1, 2, 3}
				for n := 4; n < 4+budget-1; n++ {
					shardCounts = append(shardCounts, n)
				}
				for _, nshards := range shardCounts {
					for _, mode := range []wal.FaultMode{wal.FaultCrash, wal.FaultTorn, wal.FaultShort} {
						if err := sweepGroupCrashPoints(nshards, mode); err != nil {
							return err
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "walshard", Name: "shard-wal-refines-single-wal", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error { return shardRefinesSingle() }},
	)
}

// Group-sweep geometry: per-shard regions sized so each hosts a full
// wal journal (snapshot slots + header + record area) and the scripted
// workload can overflow a record area into the checkpoint escalation.
const (
	gSweepBlockSize = 512
	gSweepRegion    = 160
	gSweepJournal   = 48
)

// Step kinds of the scripted cross-shard workload.
const (
	gMut    = iota // one mutation (namespace-broadcast or owner-content)
	gCommit        // cross-shard group commit (the batch boundary)
	gCkpt          // explicit checkpoint of one shard
)

// groupStep is one step: a mutation (ns == true broadcasts it to every
// shard's filesystem, otherwise it applies to Ino's owner shard only —
// exactly the sharded kernel's namespace/content split), a commit, or
// a checkpoint of shard `shard` (taken modulo the shard count).
type groupStep struct {
	kind  int
	m     fs.Mutation
	ns    bool
	shard int
}

// groupScript is the crash-sweep workload. Inode numbers are
// deterministic (root is 1): /a=2, /d=3, /d/c=4, /b=5. Every batch
// touches more than one shard at 2+ shards (the namespace broadcasts
// participate everywhere; content writes land on ino%nshards), so
// crash points land inside multi-shard prepare fans, the commit stamp
// write, checkpoint snapshots, and the uncommitted tail.
func groupScript() []groupStep {
	return []groupStep{
		// batch 1
		{kind: gMut, ns: true, m: fs.Mutation{Kind: fs.MutCreate, Path: "/a"}},
		{kind: gMut, m: fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: 0, Data: []byte("hello group")}},
		{kind: gCommit},
		// batch 2
		{kind: gMut, ns: true, m: fs.Mutation{Kind: fs.MutMkdir, Path: "/d"}},
		{kind: gMut, ns: true, m: fs.Mutation{Kind: fs.MutCreate, Path: "/d/c"}},
		{kind: gMut, m: fs.Mutation{Kind: fs.MutWrite, Ino: 4, Off: 0, Data: []byte("nested file payload")}},
		{kind: gCommit},
		{kind: gCkpt, shard: 0},
		// batch 3
		{kind: gMut, ns: true, m: fs.Mutation{Kind: fs.MutCreate, Path: "/b"}},
		{kind: gMut, ns: true, m: fs.Mutation{Kind: fs.MutLink, Path: "/b", Path2: "/d/blink"}},
		{kind: gMut, m: fs.Mutation{Kind: fs.MutWrite, Ino: 2, Off: 6, Data: []byte("rewritten tail")}},
		{kind: gMut, m: fs.Mutation{Kind: fs.MutWrite, Ino: 5, Off: 0, Data: []byte("fifth file")}},
		{kind: gCommit},
		{kind: gCkpt, shard: 1},
		// batch 4
		{kind: gMut, ns: true, m: fs.Mutation{Kind: fs.MutUnlink, Path: "/d/blink"}},
		{kind: gMut, ns: true, m: fs.Mutation{Kind: fs.MutRename, Path: "/d/c", Path2: "/d/e"}},
		{kind: gMut, m: fs.Mutation{Kind: fs.MutTruncate, Ino: 2, Size: 5}},
		{kind: gMut, m: fs.Mutation{Kind: fs.MutWrite, Ino: 4, Off: 19, Data: []byte(" appended")}},
		{kind: gCommit},
		// uncommitted tail: must never replay
		{kind: gMut, m: fs.Mutation{Kind: fs.MutWrite, Ino: 5, Off: 0, Data: []byte("never committed")}},
	}
}

// applyStep applies one mutation step to the per-shard filesystems:
// namespace mutations broadcast (in shard order, like nsBroadcast),
// content mutations go to the owner shard only.
func applyStep(fss []*fs.FS, s groupStep) error {
	if s.ns {
		for i, f := range fss {
			if err := f.Apply(s.m); err != nil {
				return fmt.Errorf("ns apply %s %q on shard %d: %w", s.m.Kind, s.m.Path, i, err)
			}
		}
		return nil
	}
	owner := int(s.m.Ino) % len(fss)
	if err := fss[owner].Apply(s.m); err != nil {
		return fmt.Errorf("content apply %s ino %d on shard %d: %w", s.m.Kind, s.m.Ino, owner, err)
	}
	return nil
}

// goldenShardStates returns golden[b][i] = shard i's filesystem after
// the first b committed batches, for b in [0, batches]. Each prefix is
// built independently. Steps after the last commit (the uncommitted
// tail) are excluded from every golden.
func goldenShardStates(nshards int, steps []groupStep) ([][]*fs.FS, error) {
	batches := 0
	for _, s := range steps {
		if s.kind == gCommit {
			batches++
		}
	}
	out := make([][]*fs.FS, 0, batches+1)
	for b := 0; b <= batches; b++ {
		fss := make([]*fs.FS, nshards)
		for i := range fss {
			fss[i] = fs.New()
		}
		done := 0
		for _, s := range steps {
			if done == b {
				break
			}
			switch s.kind {
			case gCommit:
				done++
			case gMut:
				if err := applyStep(fss, s); err != nil {
					return nil, fmt.Errorf("golden prefix %d: %w", b, err)
				}
			}
		}
		out = append(out, fss)
	}
	return out, nil
}

// runGroupWorkload drives the script against a group on d, returning
// how many batches were acknowledged (committed) when the run ended —
// by completing, or at the first disk error (the crash). Background
// checkpointing is disabled so the block-write sequence is identical
// between the probe run and every swept run.
func runGroupWorkload(d fs.BlockStore, nshards int, steps []groupStep) (acked int, _ error) {
	g, err := New(d, nshards, gSweepJournal)
	if err != nil {
		return 0, err
	}
	g.SetAutoCheckpoint(false)
	if err := g.Format(); err != nil {
		return 0, nil // crashed formatting: nothing acked
	}
	fss := make([]*fs.FS, nshards)
	for i := range fss {
		fss[i] = fs.New()
		fss[i].SetJournal(g.Journal(i))
	}
	for _, s := range steps {
		switch s.kind {
		case gCommit:
			if err := g.Commit(); err != nil {
				return acked, nil // crash: the batch was never acknowledged
			}
			acked++
		case gCkpt:
			if err := g.CheckpointShard(s.shard % nshards); err != nil {
				return acked, nil
			}
		default:
			if err := applyStep(fss, s); err != nil {
				return acked, err
			}
		}
	}
	return acked, nil
}

// sweepGroupCrashPoints is the cross-shard crash sweep: one run per
// possible crash point under the given fault mode, recovery of every
// shard on the frozen disk, and the atomic-cut check — there must be a
// SINGLE batch count B, no smaller than the acknowledged count, such
// that every shard equals its golden state at B. A shard pair matching
// different batch counts is exactly a torn cross-shard commit.
func sweepGroupCrashPoints(nshards int, mode wal.FaultMode) error {
	steps := groupScript()
	golden, err := goldenShardStates(nshards, steps)
	if err != nil {
		return err
	}
	blocks := uint64(stampSlots + nshards*gSweepRegion)

	probe := wal.NewFaultStore(fs.NewMemBlockStore(gSweepBlockSize, blocks), mode, -1)
	if _, err := runGroupWorkload(probe, nshards, steps); err != nil {
		return fmt.Errorf("probe run (%d shards): %v", nshards, err)
	}
	totalWrites := probe.Writes()
	if totalWrites < 8 {
		return fmt.Errorf("probe run made only %d writes; script too small to sweep", totalWrites)
	}

	for k := 0; k < totalWrites; k++ {
		disk := fs.NewMemBlockStore(gSweepBlockSize, blocks)
		faulty := wal.NewFaultStore(disk, mode, k)
		acked, err := runGroupWorkload(faulty, nshards, steps)
		if err != nil {
			return fmt.Errorf("%d shards, mode %s, crash@%d: %v", nshards, mode, k, err)
		}
		// Reboot on the raw device (writable again, frozen at the crash).
		g, err := New(disk, nshards, gSweepJournal)
		if err != nil {
			return err
		}
		recs := make([]*fs.FS, nshards)
		for i := range recs {
			if recs[i], err = g.RecoverShard(i); err != nil {
				return fmt.Errorf("%d shards, mode %s, crash@%d: recover shard %d: %v", nshards, mode, k, i, err)
			}
			if err := recs[i].CheckInvariant(); err != nil {
				return fmt.Errorf("%d shards, mode %s, crash@%d: shard %d invariant: %v", nshards, mode, k, i, err)
			}
		}
		// The atomic cut: one common B for ALL shards.
		matched := -1
		for b := acked; b < len(golden); b++ {
			all := true
			for i := range recs {
				if !fs.Equal(recs[i], golden[b][i]) {
					all = false
					break
				}
			}
			if all {
				matched = b
				break
			}
		}
		if matched < 0 {
			// Diagnose: per-shard best match, to tell "torn cut" from
			// "lost acked batch".
			per := make([]int, nshards)
			for i := range recs {
				per[i] = -1
				for b := 0; b < len(golden); b++ {
					if fs.Equal(recs[i], golden[b][i]) {
						per[i] = b
						break
					}
				}
			}
			return fmt.Errorf("%d shards, mode %s, crash@%d: no common batch cut in [%d, %d] (per-shard matches %v) — torn cross-shard commit or lost acknowledged batch",
				nshards, mode, k, acked, len(golden)-1, per)
		}
		// Namespace replication must also survive recovery.
		for i := 1; i < nshards; i++ {
			if !fs.NamespaceEqual(recs[i], recs[0]) {
				return fmt.Errorf("%d shards, mode %s, crash@%d: namespace diverges between shard 0 and %d", nshards, mode, k, i)
			}
		}
	}
	return nil
}

// shardRefinesSingle checks the refinement against the single-journal
// spec: for every committed batch prefix, the sharded group's recovered
// state is observably the single wal.Journal's recovered state — equal
// namespaces on every shard, and each file's contents live on exactly
// its owner shard, equal to the single journal's contents.
func shardRefinesSingle() error {
	const nshards = 2
	steps := groupScript()
	batches := 0
	for _, s := range steps {
		if s.kind == gCommit {
			batches++
		}
	}
	for b := 0; b <= batches; b++ {
		// Truncate the script after the b-th commit.
		var prefix []groupStep
		done := 0
		for _, s := range steps {
			if done == b {
				break
			}
			prefix = append(prefix, s)
			if s.kind == gCommit {
				done++
			}
		}

		// Sharded run + recovery.
		blocks := uint64(stampSlots + nshards*gSweepRegion)
		diskS := fs.NewMemBlockStore(gSweepBlockSize, blocks)
		if _, err := runGroupWorkload(diskS, nshards, prefix); err != nil {
			return fmt.Errorf("prefix %d: sharded run: %v", b, err)
		}
		g, err := New(diskS, nshards, gSweepJournal)
		if err != nil {
			return err
		}
		recs := make([]*fs.FS, nshards)
		for i := range recs {
			if recs[i], err = g.RecoverShard(i); err != nil {
				return fmt.Errorf("prefix %d: recover shard %d: %v", b, i, err)
			}
		}

		// Single-journal run + recovery: same mutations, one log, one FS.
		diskM := fs.NewMemBlockStore(gSweepBlockSize, 256)
		j, err := wal.New(diskM, 64)
		if err != nil {
			return err
		}
		if err := j.Format(); err != nil {
			return err
		}
		f := fs.New()
		f.SetJournal(j)
		for _, s := range prefix {
			switch s.kind {
			case gCommit:
				if err := j.Flush(); err != nil {
					return fmt.Errorf("prefix %d: single flush: %v", b, err)
				}
			case gCkpt:
				if err := j.Checkpoint(f); err != nil {
					return fmt.Errorf("prefix %d: single checkpoint: %v", b, err)
				}
			default:
				if err := f.Apply(s.m); err != nil {
					return fmt.Errorf("prefix %d: single apply: %v", b, err)
				}
			}
		}
		j2, err := wal.New(diskM, 64)
		if err != nil {
			return err
		}
		single, err := j2.Recover()
		if err != nil {
			return fmt.Errorf("prefix %d: single recovery: %v", b, err)
		}

		// Observable equality.
		for i := range recs {
			if !fs.NamespaceEqual(recs[i], single) {
				return fmt.Errorf("prefix %d: shard %d namespace differs from single-journal recovery", b, i)
			}
		}
		for _, ino := range single.InodesWithData() {
			owner := int(ino) % nshards
			got, ok := recs[owner].Contents(ino)
			want, _ := single.Contents(ino)
			if !ok || !got.Equal(want) {
				return fmt.Errorf("prefix %d: ino %d contents on owner shard %d diverge from single-journal recovery", b, ino, owner)
			}
		}
		for i := range recs {
			for _, ino := range recs[i].InodesWithData() {
				if int(ino)%nshards != i {
					return fmt.Errorf("prefix %d: shard %d holds contents for ino %d it does not own", b, i, ino)
				}
				want, ok := single.Contents(ino)
				got, _ := recs[i].Contents(ino)
				if !ok || !got.Equal(want) {
					return fmt.Errorf("prefix %d: shard %d ino %d contents not present in single-journal recovery", b, i, ino)
				}
			}
		}
	}
	return nil
}
