package sys

import (
	"fmt"
	"math/rand"
	"reflect"

	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerSyncObligations: the Sync syscall's slice of the §3
// marshalling obligation plus its dispatch-classification invariants.
// Sync carries no arguments, but it still crosses the boundary through
// the same frame/payload codec, rides in batches as a group-commit
// marker, and must be classified exactly one way by the dispatch
// predicates — local, not batch-replayed, not read-only.
func registerSyncObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "sys", Name: "sync-op-round-trip", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				op := WriteOp{Num: NumSync, PID: proc.PID(r.Uint64())}
				frame, payload := EncodeWrite(op)
				got, err := DecodeWrite(frame, payload)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(normalizeOp(op), normalizeOp(got)) {
					return fmt.Errorf("sync op round trip mismatch:\n  in  %+v\n  out %+v", op, got)
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "sync-batch-round-trip", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				// A batch whose ops include sync markers must survive the
				// batch codec byte-for-byte, or group commit would sync
				// the wrong prefix.
				for i := 0; i < 200; i++ {
					pid := proc.PID(r.Uint64())
					n := 1 + r.Intn(6)
					ops := make([]WriteOp, n)
					for k := range ops {
						if r.Intn(3) == 0 {
							ops[k] = WriteOp{Num: NumSync, PID: pid}
						} else {
							ops[k] = randomWriteOp(r)
							ops[k].PID = pid
						}
					}
					frame, payload := EncodeBatch(pid, ops)
					got, err := DecodeBatch(frame, payload)
					if err != nil {
						return err
					}
					if len(got) != len(ops) {
						return fmt.Errorf("batch round trip: %d/%d ops", len(got), len(ops))
					}
					for k := range ops {
						if !reflect.DeepEqual(normalizeOp(ops[k]), normalizeOp(got[k])) {
							return fmt.Errorf("batch op %d mismatch:\n  in  %+v\n  out %+v", k, ops[k], got[k])
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "sync-dispatch-classification", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				if !IsLocalOp(NumSync) {
					return fmt.Errorf("sync must be a local op: the journal flush happens once against the device, not per replica")
				}
				if IsBatchableOp(NumSync) {
					return fmt.Errorf("sync must not be batch-replayed through the state machine")
				}
				if IsReadOp(NumSync) {
					return fmt.Errorf("sync is not a read-only op")
				}
				if OpName(NumSync) != "sync" {
					return fmt.Errorf("sync has no display name")
				}
				if MaxOpNum < NumSync || MaxOpNum >= obs.MaxSyscallOps {
					return fmt.Errorf("MaxOpNum %d must cover NumSync %d and fit the obs opcode space %d",
						MaxOpNum, NumSync, obs.MaxSyscallOps)
				}
				return nil
			}},
		verifier.Obligation{Module: "sys", Name: "internal-op-classification", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				// The op table's own consistency. The cross-shard protocol
				// ops fill the rows strictly above the wire ABI and fit the
				// obs opcode space; none is local, batchable or checked, and
				// none carries a tail — they are never marshalled. A run
				// entry is batchable, and a checked op is a run entry or the
				// positioned read.
				if MaxInternalOpNum >= obs.MaxSyscallOps {
					return fmt.Errorf("obs opcode space %d does not cover MaxInternalOpNum %d", obs.MaxSyscallOps, MaxInternalOpNum)
				}
				for num := uint64(1); num <= MaxInternalOpNum; num++ {
					o := lookup(num)
					switch {
					case o.class == classNone:
						return fmt.Errorf("op %d has no row", num)
					case IsInternalOp(num) != (num > MaxOpNum):
						return fmt.Errorf("op %s (%d) is on the wrong side of the wire ABI %d", o.name, num, MaxOpNum)
					case IsInternalOp(num) && (o.props != 0 || o.tail != 0):
						return fmt.Errorf("internal op %s (%d) is wire-classified", o.name, num)
					case IsRunOp(num) && !IsBatchableOp(num):
						return fmt.Errorf("run entry %s (%d) is not batchable", o.name, num)
					case checked(num) && !IsRunOp(num) && num != NumPread:
						return fmt.Errorf("checked op %s (%d) is neither a run entry nor pread", o.name, num)
					}
				}
				if IsInternalOp(MaxInternalOpNum + 1) {
					return fmt.Errorf("IsInternalOp open above MaxInternalOpNum")
				}
				return nil
			}},
	)
}
