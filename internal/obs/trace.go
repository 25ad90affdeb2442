package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one kernel trace record: a monotone sequence number, a
// wall-clock timestamp, a kind id (registered via RegisterKind) and two
// payload words whose meaning the kind defines (opcode and core, VA and
// frame, ...).
type Event struct {
	Seq  uint64
	TS   int64 // UnixNano
	Kind uint32
	A, B uint64
}

// traceSlot is one ring slot. Every field is atomic so a writer lapping
// the ring while Snapshot reads never constitutes a data race; a torn
// (mid-overwrite) slot is detected by re-checking seq after the reads.
type traceSlot struct {
	seq  atomic.Uint64 // logical index + 1; 0 = never written
	ts   atomic.Int64
	kind atomic.Uint32
	a, b atomic.Uint64
}

// Trace is a bounded, lock-free event ring. Writers claim a slot with a
// fetch-add and overwrite the oldest event when the ring is full — the
// ring always holds the most recent window, which is what a postmortem
// wants.
type Trace struct {
	name  string
	slots []traceSlot
	mask  uint64
	next  atomic.Uint64
}

// NewTrace creates and registers a trace ring with at least size slots
// (rounded up to a power of two; minimum 16).
func NewTrace(name string, size int) *Trace {
	n := 16
	for n < size {
		n <<= 1
	}
	t := &Trace{name: name, slots: make([]traceSlot, n), mask: uint64(n - 1)}
	registry.mu.Lock()
	registry.traces = append(registry.traces, t)
	registry.mu.Unlock()
	return t
}

// Name returns the ring's registered name.
func (t *Trace) Name() string { return t.name }

// Cap returns the ring capacity.
func (t *Trace) Cap() int { return len(t.slots) }

// Emit records an event. Allocation-free; no-op while stats are
// disabled, subject to the global sample rate while enabled (the ring
// then holds a uniform sample of the recent window rather than every
// event).
func (t *Trace) Emit(kind uint32, a, b uint64) {
	if !enabled.Load() || !sampled() {
		return
	}
	i := t.next.Add(1) - 1
	s := &t.slots[i&t.mask]
	// Invalidate first so a concurrent Snapshot never mistakes a
	// half-written slot for the old complete event.
	s.seq.Store(0)
	s.ts.Store(time.Now().UnixNano())
	s.kind.Store(kind)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(i + 1)
}

// Snapshot copies the ring's complete events in sequence order.
func (t *Trace) Snapshot() []Event {
	out := make([]Event, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		seq := s.seq.Load()
		if seq == 0 {
			continue
		}
		e := Event{Seq: seq - 1, TS: s.ts.Load(), Kind: s.kind.Load(), A: s.a.Load(), B: s.b.Load()}
		if s.seq.Load() != seq {
			continue // overwritten mid-read
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func (t *Trace) reset() {
	for i := range t.slots {
		t.slots[i].seq.Store(0)
	}
	t.next.Store(0)
}

// Kind registry: stable small ids for event kinds, resolvable back to
// names when rendering.
var kinds struct {
	mu    sync.Mutex
	names []string
}

// RegisterKind assigns an id to a trace event kind. Call once per kind
// at package init.
func RegisterKind(name string) uint32 {
	kinds.mu.Lock()
	defer kinds.mu.Unlock()
	kinds.names = append(kinds.names, name)
	return uint32(len(kinds.names) - 1)
}

// KindName resolves a kind id.
func KindName(k uint32) string {
	kinds.mu.Lock()
	defer kinds.mu.Unlock()
	if int(k) < len(kinds.names) {
		return kinds.names[k]
	}
	return fmt.Sprintf("kind%d", k)
}

// RenderTrace prints the last n events of a snapshot (n <= 0: all).
func RenderTrace(events []Event, n int) string {
	if n > 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "  %8d %s %-14s a=%#x b=%#x\n",
			e.Seq, time.Unix(0, e.TS).Format("15:04:05.000000"), KindName(e.Kind), e.A, e.B)
	}
	return b.String()
}
