package sched

import (
	"errors"
	"reflect"
	"testing"

	"github.com/verified-os/vnros/internal/nr"
	"github.com/verified-os/vnros/internal/verifier"
)

func TestAddPickLifecycle(t *testing.T) {
	q := NewRunQueue()
	if err := q.Add(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Add(1, 0); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate add: %v", err)
	}
	tid, err := q.PickNext(2)
	if err != nil || tid != 1 {
		t.Fatalf("pick = %d, %v", tid, err)
	}
	tcb, err := q.Get(1)
	if err != nil || tcb.State != StateRunning || tcb.Core != 2 || tcb.Runs != 1 {
		t.Fatalf("tcb = %+v, %v", tcb, err)
	}
	if _, err := q.PickNext(0); !errors.Is(err, ErrNoRunnable) {
		t.Errorf("pick from empty: %v", err)
	}
	if err := q.Exit(1); err != nil {
		t.Fatal(err)
	}
	if err := q.Reap(1); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 0 {
		t.Errorf("len = %d", q.Len())
	}
}

func TestStateTransitionGuards(t *testing.T) {
	q := NewRunQueue()
	_ = q.Add(1, 0)
	if err := q.Yield(1); !errors.Is(err, ErrBadState) {
		t.Errorf("yield ready: %v", err)
	}
	if err := q.Block(1); !errors.Is(err, ErrBadState) {
		t.Errorf("block ready: %v", err)
	}
	if err := q.Wake(1); !errors.Is(err, ErrBadState) {
		t.Errorf("wake ready: %v", err)
	}
	if err := q.Reap(1); !errors.Is(err, ErrBadState) {
		t.Errorf("reap ready: %v", err)
	}
	if _, err := q.Get(99); !errors.Is(err, ErrNoThread) {
		t.Errorf("get missing: %v", err)
	}
	if err := q.Exit(99); !errors.Is(err, ErrNoThread) {
		t.Errorf("exit missing: %v", err)
	}
}

func TestYieldRoundRobin(t *testing.T) {
	q := NewRunQueue()
	for tid := TID(1); tid <= 3; tid++ {
		_ = q.Add(tid, 2)
	}
	var order []TID
	for i := 0; i < 6; i++ {
		tid, err := q.PickNext(0)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, tid)
		if err := q.Yield(tid); err != nil {
			t.Fatal(err)
		}
	}
	want := []TID{1, 2, 3, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestPriorityPreemptsOrder(t *testing.T) {
	q := NewRunQueue()
	_ = q.Add(10, 3)
	_ = q.Add(20, 1)
	tid, _ := q.PickNext(0)
	if tid != 20 {
		t.Fatalf("picked %d", tid)
	}
	// A new high-priority arrival is dispatched before the low one.
	_ = q.Add(30, 0)
	tid, _ = q.PickNext(1)
	if tid != 30 {
		t.Fatalf("picked %d, want 30", tid)
	}
}

func TestSetPriority(t *testing.T) {
	q := NewRunQueue()
	_ = q.Add(1, 3)
	_ = q.Add(2, 3)
	if err := q.SetPriority(2, 0); err != nil {
		t.Fatal(err)
	}
	tid, _ := q.PickNext(0)
	if tid != 2 {
		t.Fatalf("boosted thread not dispatched first: %d", tid)
	}
	if err := q.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := q.SetPriority(1, NumPriorities); !errors.Is(err, ErrBadState) {
		t.Errorf("bad priority: %v", err)
	}
}

func TestBlockWake(t *testing.T) {
	q := NewRunQueue()
	_ = q.Add(1, 0)
	_ = q.Add(2, 0)
	tid, _ := q.PickNext(0)
	if err := q.Block(tid); err != nil {
		t.Fatal(err)
	}
	// Only thread 2 is dispatchable now.
	tid2, _ := q.PickNext(0)
	if tid2 != 2 {
		t.Fatalf("picked %d", tid2)
	}
	if err := q.Wake(1); err != nil {
		t.Fatal(err)
	}
	tid3, err := q.PickNext(1)
	if err != nil || tid3 != 1 {
		t.Fatalf("woken pick = %d, %v", tid3, err)
	}
	if err := q.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestEachVisitsWhatSnapshotHolds(t *testing.T) {
	q := NewRunQueue()
	for tid := TID(1); tid <= 5; tid++ {
		_ = q.Add(tid, Priority(tid%NumPriorities))
	}
	tid, _ := q.PickNext(0)
	_ = q.Block(tid)
	want := q.Snapshot()
	got := map[TID]TCB{}
	q.Each(func(tid TID, tcb TCB) bool {
		got[tid] = tcb
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Each visited %v, Snapshot holds %v", got, want)
	}
	visits := 0
	q.Each(func(TID, TCB) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("Each made %d visits after a false return, want 1", visits)
	}
}

func TestNRQueueAdapters(t *testing.T) {
	rep := nr.New(nr.Options{Replicas: 2}, func() nr.DataStructure[SchedRead, SchedWrite, SchedResp] {
		return &NRQueue{Q: NewRunQueue()}
	})
	c := rep.MustRegister(0)
	if resp := c.Execute(SchedWrite{Kind: "add", TID: 7, Pri: 1}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if resp := c.ExecuteRead(SchedRead{Kind: "ready-count"}); resp.Count != 1 {
		t.Fatalf("ready-count = %d", resp.Count)
	}
	c2 := rep.MustRegister(1)
	if resp := c2.Execute(SchedWrite{Kind: "pick", Core: 3}); resp.TID != 7 {
		t.Fatalf("pick via replica 1 = %+v", resp)
	}
	if resp := c.ExecuteRead(SchedRead{Kind: "get", TID: 7}); resp.TCB.State != StateRunning {
		t.Fatalf("get = %+v", resp)
	}
}

func TestObligationsAllPass(t *testing.T) {
	g := &verifier.Registry{}
	RegisterObligations(g)
	rep := g.Run(verifier.Options{Seed: 23})
	for _, f := range rep.Failed() {
		t.Errorf("VC %s failed: %v", f.Obligation.ID(), f.Err)
	}
}
