package pt

import (
	"fmt"

	"github.com/verified-os/vnros/internal/hw/mem"
)

// SimpleFrameSource is a deterministic free-list frame allocator over a
// physical address range. It is what the kernel's page tables allocate
// from: core.Boot gives every kernel replica its own SimpleFrameSource
// over a disjoint slice of the table region (internal/mm's buddy
// allocator serves mmap and page-cache data frames, not tables). Tests,
// the refinement harness and the benchmarks use it too. Frames are
// zeroed on allocation, as FrameSource requires. Not safe for
// concurrent use — each NR replica owns its own.
type SimpleFrameSource struct {
	m           *mem.PhysMem
	next, end   mem.PAddr
	free        []mem.PAddr
	outstanding map[mem.PAddr]bool
}

// NewSimpleFrameSource allocates frames from [start, end) of m.
func NewSimpleFrameSource(m *mem.PhysMem, start, end mem.PAddr) *SimpleFrameSource {
	return &SimpleFrameSource{
		m:           m,
		next:        start.FrameBase(),
		end:         end,
		outstanding: make(map[mem.PAddr]bool),
	}
}

// AllocFrame implements FrameSource.
func (s *SimpleFrameSource) AllocFrame() (mem.PAddr, error) {
	var f mem.PAddr
	if n := len(s.free); n > 0 {
		f = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if s.next+mem.PageSize > s.end {
			return 0, fmt.Errorf("frame source exhausted at %v", s.next)
		}
		f = s.next
		s.next += mem.PageSize
	}
	if err := s.m.ZeroFrame(f); err != nil {
		return 0, err
	}
	s.outstanding[f] = true
	return f, nil
}

// FreeFrame implements FrameSource.
func (s *SimpleFrameSource) FreeFrame(f mem.PAddr) error {
	if !s.outstanding[f] {
		return fmt.Errorf("frame source: double free or foreign frame %v", f)
	}
	delete(s.outstanding, f)
	s.free = append(s.free, f)
	return nil
}

// Outstanding returns the number of allocated-but-unfreed frames; the
// page-table invariant relates it to the live table count.
func (s *SimpleFrameSource) Outstanding() int { return len(s.outstanding) }
