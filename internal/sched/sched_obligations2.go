package sched

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/verifier"
)

// registerMoreObligations is the second wave of scheduler VCs:
// bounded-waiting within a priority class, priority-change consistency,
// conservation of threads across state transitions, and a work-
// conserving property (PickNext succeeds iff a ready thread exists).
func registerMoreObligations(g *verifier.Registry) {
	g.Register(
		verifier.Obligation{Module: "sched", Name: "bounded-waiting-within-class", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// With n threads in one class under yield cycling, every
				// thread runs at least once in any window of n dispatches.
				q := NewRunQueue()
				n := 3 + r.Intn(6)
				for tid := TID(1); tid <= TID(n); tid++ {
					if err := q.Add(tid, 1); err != nil {
						return err
					}
				}
				lastRun := make(map[TID]int)
				for step := 0; step < n*20; step++ {
					tid, err := q.PickNext(0)
					if err != nil {
						return err
					}
					if prev, seen := lastRun[tid]; seen && step-prev > n {
						return fmt.Errorf("thread %d waited %d dispatches (class size %d)", tid, step-prev, n)
					}
					lastRun[tid] = step
					if err := q.Yield(tid); err != nil {
						return err
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sched", Name: "thread-conservation", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				// No transition creates or destroys threads except
				// Add/Reap; state counts always sum to Len().
				q := NewRunQueue()
				var next TID = 1
				running := map[TID]bool{}
				added, reaped := 0, 0
				for i := 0; i < 2000; i++ {
					switch r.Intn(6) {
					case 0:
						if q.Add(next, Priority(r.Intn(NumPriorities))) == nil {
							added++
						}
						next++
					case 1:
						if tid, err := q.PickNext(0); err == nil {
							running[tid] = true
						}
					case 2:
						for tid := range running {
							_ = q.Yield(tid)
							delete(running, tid)
							break
						}
					case 3:
						for tid := range running {
							_ = q.Block(tid)
							delete(running, tid)
							break
						}
					case 4:
						wakeAnyBlocked(q)
					case 5:
						for tid := range running {
							if q.Exit(tid) == nil && q.Reap(tid) == nil {
								reaped++
							}
							delete(running, tid)
							break
						}
					}
					if q.Len() != added-reaped {
						return fmt.Errorf("len %d != added %d - reaped %d", q.Len(), added, reaped)
					}
					counts := map[State]int{}
					q.Each(func(_ TID, t TCB) bool {
						counts[t.State]++
						return true
					})
					total := counts[StateReady] + counts[StateRunning] + counts[StateBlocked] + counts[StateExited]
					if total != q.Len() {
						return fmt.Errorf("state counts %v sum %d != len %d", counts, total, q.Len())
					}
				}
				return q.CheckInvariant()
			}},
		verifier.Obligation{Module: "sched", Name: "work-conserving", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// PickNext fails exactly when no thread is ready.
				q := NewRunQueue()
				for i := 0; i < 1000; i++ {
					ready := q.ReadyCount()
					tid, err := q.PickNext(0)
					if (err == nil) != (ready > 0) {
						return fmt.Errorf("ready=%d but PickNext err=%v", ready, err)
					}
					if err == nil {
						switch r.Intn(3) {
						case 0:
							_ = q.Yield(tid)
						case 1:
							_ = q.Block(tid)
						default:
							_ = q.Exit(tid)
							_ = q.Reap(tid)
						}
					} else if r.Intn(2) == 0 {
						_ = q.Add(TID(1000+i), Priority(r.Intn(NumPriorities)))
					} else {
						wakeAnyBlocked(q)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "sched", Name: "priority-change-consistent", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				q := NewRunQueue()
				for tid := TID(1); tid <= 20; tid++ {
					if err := q.Add(tid, Priority(r.Intn(NumPriorities))); err != nil {
						return err
					}
				}
				for i := 0; i < 500; i++ {
					tid := TID(1 + r.Intn(20))
					if err := q.SetPriority(tid, Priority(r.Intn(NumPriorities))); err != nil {
						return err
					}
					if err := q.CheckInvariant(); err != nil {
						return fmt.Errorf("iter %d: %w", i, err)
					}
				}
				// Highest priority still dispatched first.
				best := Priority(NumPriorities)
				q.Each(func(_ TID, t TCB) bool {
					if t.State == StateReady && t.Priority < best {
						best = t.Priority
					}
					return true
				})
				tid, err := q.PickNext(0)
				if err != nil {
					return err
				}
				got, err := q.Get(tid)
				if err != nil {
					return err
				}
				if got.Priority != best {
					return fmt.Errorf("dispatched priority %d, best ready was %d", got.Priority, best)
				}
				return nil
			}},
	)
}

// wakeAnyBlocked wakes one blocked thread, if there is one.
func wakeAnyBlocked(q *RunQueue) {
	q.Each(func(tid TID, t TCB) bool {
		if t.State != StateBlocked {
			return true
		}
		_ = q.Wake(tid)
		return false
	})
}
