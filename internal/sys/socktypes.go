package sys

import "github.com/verified-os/vnros/internal/netstack"

// Typed socket identifiers. The wire ABI (WriteOp.Sock/Port/Addr) stays
// bare integers — these types live at the API boundary, where they are
// validated before a frame is built, the same posture as OpenFlag: a
// structurally invalid argument never crosses into the kernel.

// NetAddr is a network-layer address (a netstack wire address).
type NetAddr = netstack.Addr

// Port is a socket port number. Port 0 is the ephemeral request in
// bind (the kernel picks a free port) and never a valid destination.
type Port uint16

// Validate checks p as a send destination: datagrams cannot target the
// ephemeral port.
func (p Port) Validate() Errno {
	if p == 0 {
		return EINVAL
	}
	return EOK
}

// SockID names a bound socket. The kernel allocates ids from 1, so the
// zero SockID is never valid — a zero-value bug is caught at the
// boundary as EBADF instead of crossing as a table miss.
type SockID uint64

// Validate checks that s can name a socket at all.
func (s SockID) Validate() Errno {
	if s == 0 {
		return EBADF
	}
	return EOK
}

// NetAddrBits is the width of a machine address: a received datagram's
// source travels in one word, its address above its 16-bit port
// (SockFrom.Pack), so core.Boot refuses a wider NICAddr.
const NetAddrBits = 48

// SockFrom is the source of a received datagram.
type SockFrom struct {
	Addr NetAddr
	Port Port
}

// Pack is the one encoding of a received datagram's source: the Val of
// a NumSockRecv reply, per call or in a batch, is the address above the
// port.
func (f SockFrom) Pack() uint64 { return uint64(f.Addr)<<16 | uint64(f.Port) }

func unpackSockFrom(v uint64) SockFrom {
	return SockFrom{Addr: NetAddr(v >> 16), Port: Port(uint16(v))}
}

// SockFrom unpacks a receive completion's Val into the datagram's
// typed source. Only meaningful on NumSockRecv completions.
func (c Completion) SockFrom() SockFrom { return unpackSockFrom(c.Val) }
