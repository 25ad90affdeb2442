package sys

import "github.com/verified-os/vnros/internal/fs"

// OpenFlag is the typed flag set of Sys.Open. The values are the fs
// layer's bits, re-declared as a defined type so that invalid
// combinations are rejected at the API surface (Validate) and so that
// user programs cannot pass an arbitrary int where a flag set is
// expected. Untyped constant expressions like OCreate|ORdWr convert
// implicitly, so existing call sites keep compiling.
type OpenFlag uint64

const (
	ORdOnly OpenFlag = fs.ORdOnly
	OWrOnly OpenFlag = fs.OWrOnly
	ORdWr   OpenFlag = fs.ORdWr
	OCreate OpenFlag = fs.OCreate
	OTrunc  OpenFlag = fs.OTrunc
	OAppend OpenFlag = fs.OAppend
)

// openFlagMask is every bit with a defined meaning.
const openFlagMask = ORdOnly | OWrOnly | ORdWr | OCreate | OTrunc | OAppend

// Validate reports EINVAL for flag combinations no kernel transition
// accepts: unknown bits, contradictory access modes, and truncation of
// a descriptor that could never write. It is checked both user-side
// (Sys.Open, before the crossing) and kernel-side (DispatchWrite, so a
// hand-rolled frame cannot bypass it).
func (f OpenFlag) Validate() Errno {
	if f&^openFlagMask != 0 {
		return EINVAL
	}
	if f&OWrOnly != 0 && f&ORdWr != 0 {
		return EINVAL
	}
	// OAppend counts as a write mode: the descriptor layer accepts
	// writes through it (fs.FDTable.Write).
	if f&OTrunc != 0 && f&(OWrOnly|ORdWr|OAppend) == 0 {
		return EINVAL
	}
	return EOK
}
