package pt

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/hw/mem"
	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/spec/sm"
)

// This file is the refinement harness: it connects the implementation
// (bits in simulated physical memory) to the high-level spec (the
// mathematical map) through the MMU's interpretation function, exactly
// as Figure 2 of the paper draws it:
//
//	high-level spec  <—refines—  page-table impl + hardware spec
//
// The abstraction function of the §5 proof *is* mmu.Walker.Interpret (its
// map-free form, Walker.Scan, filling the AbstractState directly):
// whatever the hardware would decode from memory is the implementation's
// abstract state. The harness executes operations on the implementation,
// re-interprets memory after each, and feeds (event, abstraction) pairs
// to the sm.TraceChecker.

// Interpret computes the abstraction of an address space's current
// memory state via the hardware's interpretation function.
func Interpret(m *mem.PhysMem, root mem.PAddr) (AbstractState, error) {
	w := mmu.Walker{Mem: m}
	out := make(AbstractState)
	err := w.Scan(root, func(tr mmu.Translation) {
		out[tr.Base] = Mapping{
			Frame:    tr.Frame,
			PageSize: tr.PageSize,
			Flags: mmu.Flags{
				Writable: tr.Writable, User: tr.User,
				NoExec: tr.NoExec, Global: tr.Global,
			},
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TraceOp is one operation of a generated refinement workload.
type TraceOp struct {
	Kind  string // "map", "unmap", "resolve"
	VA    mmu.VAddr
	Frame mem.PAddr
	Size  uint64
	Flags mmu.Flags
}

// Harness drives an AddressSpace and checks each step against the
// high-level spec through the interpretation function.
type Harness struct {
	AS      AddressSpace
	Mem     *mem.PhysMem
	checker *sm.TraceChecker[AbstractState]
}

// NewHarness builds a harness and seeds the checker with the
// abstraction of the initial state (which must be empty).
func NewHarness(as AddressSpace, m *mem.PhysMem) (*Harness, error) {
	h := &Harness{AS: as, Mem: m, checker: &sm.TraceChecker[AbstractState]{Spec: Spec()}}
	abs, err := Interpret(m, as.Root())
	if err != nil {
		return nil, err
	}
	if err := h.checker.Start(abs); err != nil {
		return nil, err
	}
	return h, nil
}

// Apply executes one operation on the implementation and checks the
// resulting transition refines the spec.
func (h *Harness) Apply(op TraceOp) error {
	var ev sm.Event
	switch op.Kind {
	case "map":
		err := h.AS.Map(op.VA, op.Frame, op.Size, op.Flags)
		ev = EvMap(op.VA, op.Frame, op.Size, op.Flags, ClassifyError(err))
	case "unmap":
		frame, err := h.AS.Unmap(op.VA)
		ev = EvUnmap(op.VA, frame, ClassifyError(err))
	case "resolve":
		m, ok := h.AS.Resolve(op.VA)
		ev = EvResolve(op.VA, m, ok)
	default:
		return fmt.Errorf("pt: unknown trace op %q", op.Kind)
	}
	abs, err := Interpret(h.Mem, h.AS.Root())
	if err != nil {
		return fmt.Errorf("pt: interpretation failed after %s: %w", op.Kind, err)
	}
	return h.checker.Step(ev, abs)
}

// Steps returns the number of checked operations.
func (h *Harness) Steps() int { return h.checker.Steps() }

// GenTrace produces a randomized workload biased toward interesting
// interleavings: repeated maps/unmaps over a small set of pages (so
// collisions and directory reuse occur), occasional huge pages,
// occasional misaligned or non-canonical probes.
func GenTrace(r *rand.Rand, n int) []TraceOp {
	// A handful of hot pages plus a cold tail; two PML4 regions so
	// directory allocation and GC both trigger.
	regions := []uint64{0x0000_0000_4000_0000, 0x0000_7f00_0000_0000}
	vaPool := make([]mmu.VAddr, 0, 24)
	for _, base := range regions {
		for i := 0; i < 10; i++ {
			vaPool = append(vaPool, mmu.VAddr(base+uint64(i)*mmu.L1PageSize))
		}
		// Huge-page candidates.
		vaPool = append(vaPool, mmu.VAddr(base+0x200000), mmu.VAddr(base+0x400000))
	}
	ops := make([]TraceOp, 0, n)
	for i := 0; i < n; i++ {
		va := vaPool[r.Intn(len(vaPool))]
		switch k := r.Intn(10); {
		case k < 4: // map 4K
			ops = append(ops, TraceOp{
				Kind:  "map",
				VA:    va.PageBase(mmu.L1PageSize),
				Frame: mem.PAddr(0x100000 + uint64(r.Intn(64))*mmu.L1PageSize),
				Size:  mmu.L1PageSize,
				Flags: mmu.Flags{Writable: r.Intn(2) == 0, User: r.Intn(2) == 0, NoExec: r.Intn(4) == 0},
			})
		case k < 5: // map 2M
			ops = append(ops, TraceOp{
				Kind:  "map",
				VA:    va.PageBase(mmu.L2PageSize),
				Frame: mem.PAddr(0x40000000 + uint64(r.Intn(8))*mmu.L2PageSize),
				Size:  mmu.L2PageSize,
				Flags: mmu.Flags{Writable: true},
			})
		case k < 8: // unmap
			ops = append(ops, TraceOp{Kind: "unmap", VA: va.PageBase(mmu.L1PageSize)})
		case k < 9: // resolve
			ops = append(ops, TraceOp{Kind: "resolve", VA: va + mmu.VAddr(r.Intn(mmu.L1PageSize))})
		default: // adversarial probes
			switch r.Intn(3) {
			case 0: // misaligned map
				ops = append(ops, TraceOp{Kind: "map", VA: va + 0x10,
					Frame: 0x100000, Size: mmu.L1PageSize})
			case 1: // non-canonical
				ops = append(ops, TraceOp{Kind: "unmap", VA: 0x8000_0000_0000})
			default: // bad size
				ops = append(ops, TraceOp{Kind: "map", VA: va.PageBase(mmu.L1PageSize),
					Frame: 0x100000, Size: 8192})
			}
		}
	}
	return ops
}

// RunRandomTrace builds a fresh address space of the given variant,
// applies a generated trace under the refinement checker, and returns
// the first violation.
func RunRandomTrace(r *rand.Rand, verified bool, n int) error {
	pm := mem.New(256 << 20)
	src := NewSimpleFrameSource(pm, 0x1000, 64<<20)
	var as AddressSpace
	var err error
	if verified {
		v, e := NewVerified(pm, src, nil)
		if e == nil {
			v.EnableGhostChecks(true)
		}
		as, err = v, e
	} else {
		as, err = NewUnverified(pm, src, nil)
	}
	if err != nil {
		return err
	}
	h, err := NewHarness(as, pm)
	if err != nil {
		return err
	}
	for i, op := range GenTrace(r, n) {
		if err := h.Apply(op); err != nil {
			return fmt.Errorf("op %d (%+v): %w", i, op, err)
		}
	}
	return nil
}

// CheckEquivalence runs the same trace against both variants and
// requires identical outcomes and final abstractions — the baseline is
// the same function, just unproven.
func CheckEquivalence(r *rand.Rand, n int) error {
	pmV := mem.New(256 << 20)
	pmU := mem.New(256 << 20)
	v, err := NewVerified(pmV, NewSimpleFrameSource(pmV, 0x1000, 64<<20), nil)
	if err != nil {
		return err
	}
	u, err := NewUnverified(pmU, NewSimpleFrameSource(pmU, 0x1000, 64<<20), nil)
	if err != nil {
		return err
	}
	for i, op := range GenTrace(r, n) {
		switch op.Kind {
		case "map":
			ev := ClassifyError(v.Map(op.VA, op.Frame, op.Size, op.Flags))
			eu := ClassifyError(u.Map(op.VA, op.Frame, op.Size, op.Flags))
			if ev != eu {
				return fmt.Errorf("op %d map diverged: verified=%s unverified=%s", i, ev, eu)
			}
		case "unmap":
			fv, ev := v.Unmap(op.VA)
			fu, eu := u.Unmap(op.VA)
			if ClassifyError(ev) != ClassifyError(eu) || fv != fu {
				return fmt.Errorf("op %d unmap diverged: (%v,%v) vs (%v,%v)", i, fv, ev, fu, eu)
			}
		case "resolve":
			mv, okv := v.Resolve(op.VA)
			mu, oku := u.Resolve(op.VA)
			if okv != oku || mv != mu {
				return fmt.Errorf("op %d resolve diverged: (%v,%t) vs (%v,%t)", i, mv, okv, mu, oku)
			}
		}
	}
	av, err := Interpret(pmV, v.Root())
	if err != nil {
		return err
	}
	au, err := Interpret(pmU, u.Root())
	if err != nil {
		return err
	}
	if !av.Equal(au) {
		return fmt.Errorf("final abstractions diverged: %d vs %d mappings", len(av), len(au))
	}
	return nil
}
