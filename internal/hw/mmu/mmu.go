package mmu

import (
	"github.com/verified-os/vnros/internal/hw/mem"
)

// MMU is the per-core translation front-end: a TLB backed by the page
// walker. Translate is the single hardware-spec transition the paper's
// refinement proof cares about: given the page-table bits currently in
// physical memory, which physical address (if any) does a virtual access
// reach?
//
// The MMU also models the hardware's accessed/dirty bit updates, which
// the paper's hardware spec must expose because the OS reads those bits
// back (e.g. for page reclamation).
type MMU struct {
	walker Walker
	tlb    *TLB

	// root is the current CR3 value and asid the current PCID tag.
	root mem.PAddr
	asid uint16
}

// New returns an MMU translating against the given physical memory with
// a default-sized TLB.
func New(m *mem.PhysMem) *MMU {
	return &MMU{walker: Walker{Mem: m}, tlb: NewTLB(0)}
}

// NewWithTLB returns an MMU with an explicit TLB (tests use tiny or
// disabled TLBs; the TLB ablation bench uses capacity 1).
func NewWithTLB(m *mem.PhysMem, tlb *TLB) *MMU {
	return &MMU{walker: Walker{Mem: m}, tlb: tlb}
}

// SetRoot loads CR3 with a new page-table root and address-space tag.
// Loading CR3 invalidates non-global entries for the previous ASID only
// when the tag is reused (as with PCIDs); switching tags preserves
// cached entries, which is why unmap must invalidate explicitly.
func (u *MMU) SetRoot(root mem.PAddr, asid uint16) {
	if u.asid == asid && u.root != root {
		u.tlb.InvalidateASID(asid)
	}
	u.root = root
	u.asid = asid
}

// Root returns the current CR3 value.
func (u *MMU) Root() mem.PAddr { return u.root }

// ASID returns the current address-space tag.
func (u *MMU) ASID() uint16 { return u.asid }

// TLB exposes the TLB for invalidation (the invlpg path) and stats.
func (u *MMU) TLB() *TLB { return u.tlb }

// Walker exposes the raw walker, used by the interpretation function and
// the refinement obligations.
func (u *MMU) Walker() *Walker { return &u.walker }

// Translate translates va for the given access kind, consulting the TLB
// first and walking the tables on a miss. On a successful walk the
// translation is cached and the accessed (and, for writes, dirty) bits
// are set on the leaf entry, as hardware does.
func (u *MMU) Translate(va VAddr, access Access) (Translation, *Fault) {
	if tr, ok := u.tlb.Lookup(u.asid, va); ok {
		if f := checkPermissions(va, access, &tr); f != nil {
			return Translation{}, f
		}
		if !access.isWrite() || tr.Dirty {
			return tr, nil
		}
		// Hardware re-walks to set the dirty bit on the first write
		// through a clean cached translation; fall through to the walk.
	}

	// An entry the OS rewrote between the walk's load and the A/D
	// write-back must not be cached: walk again, as hardware does when its
	// locked update finds the entry changed.
	res := u.walker.Walk(u.root, va, access)
	for res.Fault == nil && !u.setADBits(va, access, res) {
		res = u.walker.Walk(u.root, va, access)
	}
	if res.Fault != nil {
		return Translation{}, res.Fault
	}
	if access.isWrite() {
		res.Translation.Dirty = true
	}
	u.tlb.Insert(u.asid, *res.Translation)
	return *res.Translation, nil
}

// setADBits sets the accessed bit on every entry of the walk path and
// the dirty bit on the leaf for write accesses, mirroring hardware: each
// update is a compare-and-swap against the word the walk read, so a
// stale walk can never undo an Unmap or Protect that landed since. It
// reports whether every entry still held what the walk saw; when it does
// not, the walk is stale and nothing past the changed entry is written.
func (u *MMU) setADBits(va VAddr, access Access, res WalkResult) bool {
	table := u.root
	for _, e := range res.Path {
		slot := EntryAddr(table, va, e.Level)
		raw := e.Raw | BitAccessed
		if access.isWrite() && e.IsLeaf() {
			raw |= BitDirty
		}
		if raw != e.Raw {
			// An error (the slot was readable moments ago, so none is
			// expected) is a lost swap: the re-walk reports it as a fault.
			if ok, err := u.walker.Mem.CompareAndSwap64(slot, e.Raw, raw); err != nil || !ok {
				return false
			}
		}
		if e.IsLeaf() {
			break
		}
		table = e.Addr()
	}
	return true
}

// Invlpg invalidates any cached translation for va in the current
// address space.
func (u *MMU) Invlpg(va VAddr) { u.tlb.Invalidate(u.asid, va) }

// Read reads len(p) bytes of virtual memory at va, translating each page
// it touches. It fails with the first fault encountered.
func (u *MMU) Read(va VAddr, p []byte) *Fault {
	return u.access(va, p, AccessRead, func(pa mem.PAddr, chunk []byte) error {
		return u.walker.Mem.Read(pa, chunk)
	})
}

// Write writes p to virtual memory at va.
func (u *MMU) Write(va VAddr, p []byte) *Fault {
	return u.access(va, p, AccessWrite, func(pa mem.PAddr, chunk []byte) error {
		return u.walker.Mem.Write(pa, chunk)
	})
}

// ReadUser and WriteUser are the CPL-3 variants used to model user-space
// programs touching their own memory.
func (u *MMU) ReadUser(va VAddr, p []byte) *Fault {
	return u.access(va, p, AccessUserRead, func(pa mem.PAddr, chunk []byte) error {
		return u.walker.Mem.Read(pa, chunk)
	})
}

// WriteUser writes p to user virtual memory at va with CPL-3 checks.
func (u *MMU) WriteUser(va VAddr, p []byte) *Fault {
	return u.access(va, p, AccessUserWrite, func(pa mem.PAddr, chunk []byte) error {
		return u.walker.Mem.Write(pa, chunk)
	})
}

func (u *MMU) access(va VAddr, p []byte, kind Access, op func(mem.PAddr, []byte) error) *Fault {
	for n := 0; n < len(p); {
		tr, fault := u.Translate(va+VAddr(n), kind)
		if fault != nil {
			return fault
		}
		// Stay within this page.
		remainInPage := int(tr.PageSize - (uint64(va)+uint64(n))%tr.PageSize)
		chunk := len(p) - n
		if chunk > remainInPage {
			chunk = remainInPage
		}
		if err := op(tr.PAddr, p[n:n+chunk]); err != nil {
			return &Fault{Addr: va + VAddr(n), Access: kind, Present: true,
				Reason: "physical access failed: " + err.Error()}
		}
		n += chunk
	}
	return nil
}
