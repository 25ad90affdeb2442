package nr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"unsafe"
)

// lentOp is a logged op that lends its payload, its name, its words and
// its run — a vector of further ops with payloads of their own — only
// until its call returns, as the kernel's requests and descriptor runs
// do (Owner). dst is a destination only the issuer's apply writes: not
// lent, so never copied.
type lentOp struct {
	id      int
	payload []byte
	name    string
	words   []uint64
	run     []lentOp
	dst     []byte
}

func (op *lentOp) Lent() (entries, words, n int) {
	n = len(op.payload) + len(op.name)
	for i := range op.run {
		n += len(op.run[i].payload)
	}
	return len(op.run), len(op.words), n
}

func (op *lentOp) Own(st *SlotStore[lentOp]) {
	op.payload = st.Bytes(op.payload)
	op.name = st.String(op.name)
	op.words = Words(st, op.words)
	if op.run != nil {
		op.run = *st.Vector(op.run)
		for i := range op.run {
			op.run[i].payload = st.Bytes(op.run[i].payload)
		}
	}
}

// idPayload is op id's payload: its id, then its low byte.
func idPayload(dst []byte, id int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst[:0], uint64(id))
	for len(dst) < 64 {
		dst = append(dst, byte(id))
	}
	return dst
}

// lentLog checks, as each replica applies an op, that its payloads are
// still the ones it was issued with, and at the issuer fills its
// destination, noting which slice it was handed.
type lentLog struct {
	applied int
	bad     []string
	dsts    []*byte
}

func newLentLog() DataStructure[struct{}, lentOp, int] { return &lentLog{} }

func (l *lentLog) DispatchRead(struct{}) int { return l.applied }

func (l *lentLog) DispatchWrite(op lentOp) int {
	var r int
	l.DispatchWriteInto(&op, &r)
	return r
}

func (l *lentLog) DispatchWriteInto(op *lentOp, out *int) {
	l.check(op)
	for i := range op.run {
		l.check(&op.run[i])
	}
	l.applied++
	if out == nil {
		return
	}
	if op.dst != nil {
		l.dsts = append(l.dsts, unsafe.SliceData(op.dst))
		var want [64]byte
		copy(op.dst, idPayload(want[:0], op.id))
	}
	*out = op.id
}

// check notes o when its payload does not begin with its own, or its
// name or words are not its own.
func (l *lentLog) check(o *lentOp) {
	var want [64]byte
	if o.payload != nil && (len(o.payload) < len(want) || !bytes.Equal(o.payload[:len(want)], idPayload(want[:0], o.id))) {
		l.bad = append(l.bad, fmt.Sprintf("op %d applied with a payload of %d bytes, not its own", o.id, len(o.payload)))
	}
	if o.name != "" && o.name != string(idName(want[:0], o.id)) {
		l.bad = append(l.bad, fmt.Sprintf("op %d applied with the name %q, not its own", o.id, o.name))
	}
	if o.words != nil && (len(o.words) != 3 || o.words[0] != uint64(o.id) || o.words[2] != ^uint64(o.id)) {
		l.bad = append(l.bad, fmt.Sprintf("op %d applied with the words %v, not its own", o.id, o.words))
	}
}

// idName is op id's name: "op" and its id, in decimal.
func idName(dst []byte, id int) []byte {
	return fmt.Appendf(dst[:0], "op%d", id)
}

// TestSlotStoreReusedAfterEveryReplica: an issuer that reuses the payload
// buffer and run vector it lends, on an 8-slot ring whose second replica
// has no thread and applies only when a full ring makes a publisher help
// it. Every op reaches both replicas with the payloads it was issued
// with, so a slot's store is reused only once every replica has applied
// its entry, and no two slots share one. Nothing is allocated before an
// op lends something, and once every slot has a store a lap allocates
// nothing; an op larger than SlotBytes gets a store of its own.
func TestSlotStoreReusedAfterEveryReplica(t *testing.T) {
	n := New(Options{Replicas: 2, LogSize: 8}, newLentLog)
	c := n.MustRegister(0)
	ring := len(n.log.slots)
	c.Execute(lentOp{id: -1})
	if n.log.stores.Load() != nil {
		t.Fatal("an op that lends nothing allocated the log's stores")
	}
	payload, name, words := make([]byte, 0, 64), make([]byte, 0, 16), make([]uint64, 3)
	run := make([]lentOp, 3)
	runBufs := make([][]byte, len(run))
	id := 0
	issue := func() {
		op := lentOp{id: id, payload: idPayload(payload, id)}
		if id%3 == 0 {
			// A name over a buffer the issuer reuses, and a reused vector
			// of words.
			nm := idName(name, id)
			op.name = unsafe.String(unsafe.SliceData(nm), len(nm))
			words[0], words[1], words[2] = uint64(id), 0, ^uint64(id)
			op.words = words
		}
		id++
		if id%2 == 0 {
			for i := range run {
				runBufs[i] = idPayload(runBufs[i], id+1000*(i+1))
				run[i] = lentOp{id: id + 1000*(i+1), payload: runBufs[i]}
			}
			op.run = run
		}
		if got := c.Execute(op); got != op.id {
			t.Fatalf("op %d answered %d", op.id, got)
		}
	}
	for range 3 * ring {
		issue()
	}
	if allocs := testing.AllocsPerRun(2*ring, issue); allocs != 0 {
		t.Errorf("a lap of ops into slots with stores allocates %.1f objects per op, want 0", allocs)
	}
	big := lentOp{id: id, payload: make([]byte, SlotBytes+1)}
	idPayload(big.payload[:0], id)
	slot := n.log.Tail() & n.log.mask
	kept := (*n.log.stores.Load())[slot]
	if c.Execute(big) != big.id {
		t.Fatal("the large op was not answered")
	}
	if (*n.log.stores.Load())[slot] != kept || len(kept.buf) > SlotBytes {
		t.Error("an op larger than SlotBytes was copied into its slot's kept store")
	}
	n.Replica(1).Sync()
	for r := 0; r < n.NumReplicas(); r++ {
		n.Replica(r).Inspect(func(ds DataStructure[struct{}, lentOp, int]) {
			l := ds.(*lentLog)
			if len(l.bad) > 0 {
				t.Errorf("replica %d: %d ops applied with stale payloads, first: %s", r, len(l.bad), l.bad[0])
			}
			if l.applied != id+2 {
				t.Errorf("replica %d applied %d ops, want %d", r, l.applied, id+2)
			}
		})
	}
	for i, st := range *n.log.stores.Load() {
		if st != nil && slotSize[lentOp](cap(st.vec), cap(st.words), cap(st.buf)) > SlotBytes {
			t.Errorf("slot %d keeps %d bytes, bound %d", i, slotSize[lentOp](cap(st.vec), cap(st.words), cap(st.buf)), SlotBytes)
		}
	}
}

// TestDestinationReachesIssuerApply: a destination the op does not lend
// is not copied — the issuer's apply fills the caller's own slice, and
// the other replica, applying the same entry with no slot, writes
// nothing.
func TestDestinationReachesIssuerApply(t *testing.T) {
	n := New(Options{Replicas: 2}, newLentLog)
	c := n.MustRegister(0)
	dst := make([]byte, 64)
	c.Execute(lentOp{id: 7, payload: idPayload(nil, 7), dst: dst})
	if !bytes.Equal(dst, idPayload(nil, 7)) {
		t.Error("the caller's destination was not filled by the issuer's apply")
	}
	clear(dst)
	n.Replica(1).Sync()
	if !bytes.Equal(dst, make([]byte, 64)) {
		t.Error("a replica with no slot for the entry wrote its destination")
	}
	for r := 0; r < n.NumReplicas(); r++ {
		n.Replica(r).Inspect(func(ds DataStructure[struct{}, lentOp, int]) {
			l := ds.(*lentLog)
			switch {
			case r == 0 && (len(l.dsts) != 1 || l.dsts[0] != unsafe.SliceData(dst)):
				t.Errorf("the issuer's apply was handed %v, not the caller's slice %p", l.dsts, unsafe.SliceData(dst))
			case r != 0 && len(l.dsts) != 0:
				t.Errorf("replica %d was handed a destination", r)
			}
		})
	}
}

// TestOneReplicaLogCopiesNothing: on a one-replica log the issuer's own
// apply is an entry's only one, done before its call returns, so what an
// op lends is applied where it lies and the log allocates no store; the
// issuer may still reuse what it lends. A second replica turns the copy
// on (TestSlotStoreReusedAfterEveryReplica).
func TestOneReplicaLogCopiesNothing(t *testing.T) {
	n := New(Options{Replicas: 1, LogSize: 8}, newLentLog)
	c := n.MustRegister(0)
	payload := make([]byte, 0, 64)
	run := []lentOp{{}}
	for id := range 4 * len(n.log.slots) {
		run[0] = lentOp{id: id + 1000, payload: idPayload(nil, id+1000)}
		if got := c.Execute(lentOp{id: id, payload: idPayload(payload, id), run: run}); got != id {
			t.Fatalf("op %d answered %d", id, got)
		}
	}
	if n.log.lends || n.log.stores.Load() != nil {
		t.Error("a one-replica log copied what its ops lend")
	}
	n.Replica(0).Inspect(func(ds DataStructure[struct{}, lentOp, int]) {
		if l := ds.(*lentLog); len(l.bad) > 0 {
			t.Errorf("%d ops applied with stale payloads, first: %s", len(l.bad), l.bad[0])
		}
	})
}
