package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. parent is the index
// of the enclosing span in the same tracer, -1 for a root. req is the
// request the span belongs to (the client's sequence number), so every
// span of one request shares (client, req).
type span struct {
	name   uint16
	parent int32
	req    uint32
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer records spans for one goroutine. It is a plain stack: begin
// pushes, end pops, so nesting follows the call structure and needs no
// locking. The buffer is sized up front and spans are written out only
// when the benchmark ends; a full buffer drops further spans and says
// so in the trace file. A nil tracer records nothing, which is the
// untraced configuration.
type tracer struct {
	client  int
	src     string // "facade" (traced run of the workload) or "probe" (bench-composed stack)
	epoch   time.Time
	spans   []span
	stack   []int32
	req     uint32
	dropped int
}

// names interns span names: the hot path stores a small integer.
var names = struct {
	byName map[string]uint16
	list   []string
}{byName: map[string]uint16{}}

// spanName interns s. Called at start-up for every name, never from a
// timed loop.
func spanName(s string) uint16 {
	if id, ok := names.byName[s]; ok {
		return id
	}
	id := uint16(len(names.list))
	names.byName[s] = id
	names.list = append(names.list, s)
	return id
}

func newTracer(client, capSpans int) *tracer {
	if capSpans < 64 {
		capSpans = 64
	}
	return &tracer{client: client, src: "facade", epoch: time.Now(),
		spans: make([]span, 0, capSpans), stack: make([]int32, 0, 16)}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name uint16) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: t.req, start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// request opens the root span of the client's next request.
func (t *tracer) request(name uint16) int32 {
	if t == nil {
		return -1
	}
	t.req++
	return t.begin(name)
}

// rootDurations appends each root span's duration to its name's list.
func (t *tracer) rootDurations(into map[string][]uint32) {
	for _, s := range t.spans {
		if s.parent < 0 && s.end > 0 {
			n := names.list[s.name]
			into[n] = append(into[n], uint32(s.end-s.start))
		}
	}
}

// layerTime sums the spans of one name: how many, their total
// duration, and their self time (duration minus the part covered by
// direct children).
type layerTime struct {
	count uint64
	total int64
	self  int64
}

// spanCost is what recording one span adds to the span that encloses
// it (two clock reads and the bookkeeping), measured on first use on
// this machine. selfTimes takes it back out, so a layer is not charged
// for the shims below it.
var spanCost = sync.OnceValue(func() int64 {
	const n = 200_000
	t := newTracer(0, n)
	name := spanName("calibrate")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(name))
	}
	return int64(time.Since(t0)) / n
})

func (t *tracer) selfTimes() map[string]*layerTime {
	child := make([]int64, len(t.spans))     // time covered by direct children
	kids := make([]int64, len(t.spans))      // direct children
	below := make([]int64, len(t.spans))     // all descendants
	for i := len(t.spans) - 1; i >= 0; i-- { // children follow their parent, so this visits them first
		s := t.spans[i]
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
			kids[s.parent]++
			below[s.parent] += below[i] + 1
		}
	}
	cost := spanCost()
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		lt := out[names.list[s.name]]
		if lt == nil {
			lt = &layerTime{}
			out[names.list[s.name]] = lt
		}
		lt.count++
		lt.total += max(s.end-s.start-below[i]*cost, 0)
		lt.self += max(s.end-s.start-child[i]-kids[i]*cost, 0)
	}
	return out
}

// traceFileSpans caps how many spans of one tracer reach the trace
// file; the metrics are computed from all of them.
const traceFileSpans = 30000

type spanJSON struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Src    string `json:"src"`
	Client int    `json:"client"`
	Req    uint32 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type traceFile struct {
	Workload  string     `json:"workload"`
	Truncated int        `json:"truncated_spans"`
	Dropped   int        `json:"dropped_spans"`
	Spans     []spanJSON `json:"spans"`
}

// writeTrace writes the tracers' spans as one file. Span ids are
// 1-based and unique in the file; parent 0 marks a root.
func writeTrace(path, workload string, ts []*tracer) error {
	tf := traceFile{Workload: workload}
	base := 0
	for _, t := range ts {
		if t == nil {
			continue
		}
		tf.Dropped += t.dropped
		n := len(t.spans)
		if n > traceFileSpans {
			// Cut at a root boundary so no kept span loses its parent.
			n = traceFileSpans
			for n > 0 && t.spans[n].parent >= 0 {
				n--
			}
			tf.Truncated += len(t.spans) - n
		}
		for i, s := range t.spans[:n] {
			tf.Spans = append(tf.Spans, spanJSON{
				ID: base + i + 1, Parent: base + int(s.parent) + 1, Name: names.list[s.name],
				Src: t.src, Client: t.client, Req: s.req, Start: s.start, End: s.end,
			})
			if s.parent < 0 {
				tf.Spans[len(tf.Spans)-1].Parent = 0
			}
		}
		base += n
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace %s: %w", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
