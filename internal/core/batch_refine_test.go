package core_test

import (
	"testing"

	"github.com/verified-os/vnros/internal/verifier/diff"
)

// TestShardedBatchRefinesMonolithicBatch replays batch-heavy traces on
// the co-located kernel and on a 4-shard kernel through the differential
// harness and requires identical completions, final state and recovered
// files. Each trace keeps, of a generated one, only its ring batches and
// the opens, mkdirs and syncs between them, so every descriptor run the
// sharded kernel applies as one owner-shard transition is diffed against
// the monolith's contiguous vector.
func TestShardedBatchRefinesMonolithicBatch(t *testing.T) {
	batches := 0
	for seed := int64(1); seed <= 24; seed++ {
		tr := diff.Generate(seed, 60)
		var ops []diff.Op
		for _, op := range tr.Ops {
			switch op.Kind {
			case diff.OpBatch:
				batches++
				ops = append(ops, op)
			case diff.OpMkdir, diff.OpOpen, diff.OpSync:
				ops = append(ops, op)
			}
		}
		tr.Ops = ops
		mono, err := diff.Observe(0, tr)
		if err != nil {
			t.Fatalf("seed %d: Shards 0: %v", seed, err)
		}
		shrd, err := diff.Observe(4, tr)
		if err != nil {
			t.Fatalf("seed %d: Shards 4: %v", seed, err)
		}
		if err := diff.DiffReplays("Shards 0", mono, "Shards 4", shrd); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if batches < 24 {
		t.Fatalf("%d batches over 24 traces: the generator stopped drawing batches", batches)
	}
}
