// Package sys implements the paper's §3 client application contract:
// the syscall surface of the OS as (1) a sequential kernel state
// machine (Kernel) whose operations are the syscalls, designed for NR
// replication by internal/core; (2) the user-space Sys handle whose
// methods marshal arguments across the simulated user/kernel boundary
// (the §3 marshalling obligation, via internal/marshal); and (3) the
// contract checker, which validates every call against the high-level
// spec relations through the view abstraction — the executable form of
// the paper's `ensures read_spec(old(sys).view(), sys.view(), ...)`.
package sys

import (
	"errors"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/mm"
	"github.com/verified-os/vnros/internal/netstack"
	"github.com/verified-os/vnros/internal/proc"
	"github.com/verified-os/vnros/internal/pt"
)

// Errno is the kernel error number crossing the syscall boundary.
type Errno uint64

// Errno values (subset of POSIX, plus simulation-specific ones).
const (
	EOK        Errno = 0
	EPERM      Errno = 1
	ENOENT     Errno = 2
	ESRCH      Errno = 3
	EIO        Errno = 5
	EBADF      Errno = 9
	ECHILD     Errno = 10
	EAGAIN     Errno = 11
	ENOMEM     Errno = 12
	EFAULT     Errno = 14
	EBUSY      Errno = 16
	EEXIST     Errno = 17
	ENOTDIR    Errno = 20
	EISDIR     Errno = 21
	EINVAL     Errno = 22
	ENFILE     Errno = 23
	EFBIG      Errno = 27
	ENOSYS     Errno = 38
	ENOTEMPTY  Errno = 39
	EADDRINUSE Errno = 98
)

func (e Errno) String() string {
	switch e {
	case EOK:
		return "OK"
	case EPERM:
		return "EPERM"
	case ENOENT:
		return "ENOENT"
	case ESRCH:
		return "ESRCH"
	case EIO:
		return "EIO"
	case EBADF:
		return "EBADF"
	case ECHILD:
		return "ECHILD"
	case EAGAIN:
		return "EAGAIN"
	case ENOMEM:
		return "ENOMEM"
	case EFAULT:
		return "EFAULT"
	case EBUSY:
		return "EBUSY"
	case EEXIST:
		return "EEXIST"
	case ENOTDIR:
		return "ENOTDIR"
	case EISDIR:
		return "EISDIR"
	case EINVAL:
		return "EINVAL"
	case ENFILE:
		return "ENFILE"
	case EFBIG:
		return "EFBIG"
	case ENOSYS:
		return "ENOSYS"
	case ENOTEMPTY:
		return "ENOTEMPTY"
	case EADDRINUSE:
		return "EADDRINUSE"
	}
	return "errno(" + itoa(uint64(e)) + ")"
}

// Error makes Errno usable as an error; EOK must never be returned as
// an error value.
func (e Errno) Error() string { return "sys: " + e.String() }

// Err converts an errno to the idiomatic Go error shape: nil on
// success, the Errno itself otherwise. `if err := e.Err(); err != nil`
// replaces the `if e != EOK` comparison at call sites that propagate
// errors rather than branch on specific errno values.
func (e Errno) Err() error {
	if e == EOK {
		return nil
	}
	return e
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// ErrnoFromError folds subsystem errors into errnos — the kernel's
// error ABI.
func ErrnoFromError(err error) Errno {
	switch {
	case err == nil:
		return EOK
	case errors.Is(err, fs.ErrNotExist):
		return ENOENT
	case errors.Is(err, fs.ErrExist):
		return EEXIST
	case errors.Is(err, fs.ErrNotDir):
		return ENOTDIR
	case errors.Is(err, fs.ErrIsDir):
		return EISDIR
	case errors.Is(err, fs.ErrNotEmpty):
		return ENOTEMPTY
	case errors.Is(err, fs.ErrBadFD), errors.Is(err, fs.ErrNotLocked):
		return EBADF
	case errors.Is(err, fs.ErrPermission):
		return EPERM
	case errors.Is(err, fs.ErrInval), errors.Is(err, fs.ErrNameTooLong):
		return EINVAL
	case errors.Is(err, fs.ErrFileTooBig):
		return EFBIG
	case errors.Is(err, fs.ErrBlockRange), errors.Is(err, fs.ErrBlockSize):
		return EIO
	case errors.Is(err, proc.ErrNoProcess):
		return ESRCH
	case errors.Is(err, proc.ErrNoChildren):
		return ECHILD
	case errors.Is(err, proc.ErrWouldBlock):
		return EAGAIN
	case errors.Is(err, proc.ErrZombie), errors.Is(err, proc.ErrInit):
		return EPERM
	case errors.Is(err, pt.ErrAlreadyMapped), errors.Is(err, pt.ErrHugeConflict):
		return EEXIST
	case errors.Is(err, pt.ErrNotMapped):
		return EFAULT
	case errors.Is(err, pt.ErrMisaligned), errors.Is(err, pt.ErrNonCanonical),
		errors.Is(err, pt.ErrBadPageSize):
		return EINVAL
	case errors.Is(err, pt.ErrOutOfMemory), errors.Is(err, mm.ErrNoMemory),
		errors.Is(err, mm.ErrVSpaceFull):
		return ENOMEM
	case errors.Is(err, mm.ErrVSpaceOverlap):
		return EEXIST
	case errors.Is(err, mm.ErrVSpaceBadRange), errors.Is(err, mm.ErrBadOrder):
		return EINVAL
	case errors.Is(err, netstack.ErrPortInUse):
		return EADDRINUSE
	case errors.Is(err, netstack.ErrWouldBlock):
		return EAGAIN
	case errors.Is(err, netstack.ErrTooBig):
		return EINVAL
	case errors.Is(err, netstack.ErrNoSocket):
		return EBADF
	default:
		return EINVAL
	}
}
