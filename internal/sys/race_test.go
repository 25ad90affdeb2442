package sys

import (
	"sync"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/marshal"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/proc"
)

// lockedHandler serializes kernel dispatch, standing in for the NR
// combiner's exclusion so concurrent syscalls through one Sys handle
// are legal (the kernel itself is a sequential structure).
type lockedHandler struct {
	mu sync.Mutex
	h  directHandler
}

func (l *lockedHandler) Syscall(frame marshal.SyscallFrame, payload []byte) (marshal.RetFrame, []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Syscall(frame, payload)
}

// TakeWitness implements Witnesser under the same lock.
func (l *lockedHandler) TakeWitness(into []Witness) []Witness {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.TakeWitness(into)
}

// TestEnableContractConcurrentWithSyscalls is the regression test for
// an unsynchronized contract switch: EnableContract used to store its
// state with plain assignment while concurrent syscalls read it, a data
// race once a contract is turned on after goroutines start. Run under
// -race. Its four workers share one handle, so it also pins that the
// handle serializes them: the handler keeps one witness slot, and a
// call taking another call's witness is a spurious spec violation.
func TestEnableContractConcurrentWithSyscalls(t *testing.T) {
	k := newTestKernel()
	h := &lockedHandler{h: directHandler{k: k}}
	s := NewSys(proc.InitPID, h)

	fd, e := s.Open("/race.txt", fs.OCreate|fs.ORdWr)
	if e != EOK {
		t.Fatal(e)
	}
	if _, e := s.Write(fd, []byte("contract race regression")); e != EOK {
		t.Fatal(e)
	}

	const workers = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			<-start
			for i := 0; i < 200; i++ {
				if _, e := s.Seek(fd, 0, fs.SeekSet); e != EOK {
					t.Errorf("seek: %v", e)
					return
				}
				if _, e := s.Read(fd, buf); e != EOK {
					t.Errorf("read: %v", e)
					return
				}
			}
		}()
	}
	close(start)
	// Enable (and re-enable) the contract while syscalls are in flight.
	for i := 0; i < 100; i++ {
		s.EnableContract()
	}
	wg.Wait()
	if err := s.ContractErr(); err != nil {
		t.Fatalf("contract violation: %v", err)
	}
}

// TestSyscallOpcodeSpaceCoversABI pins the obs opcode bound to the wire
// ABI: if a syscall number outgrows obs.MaxSyscallOps, its stats would
// silently clamp onto the last opcode.
func TestSyscallOpcodeSpaceCoversABI(t *testing.T) {
	if MaxOpNum >= obs.MaxSyscallOps {
		t.Fatalf("sys.MaxOpNum = %d >= obs.MaxSyscallOps = %d; grow the opcode space",
			MaxOpNum, obs.MaxSyscallOps)
	}
	if OpName(NumOpen) != "open" || OpName(NumMemCAS) != "mem_cas" {
		t.Fatalf("OpName mapping broken: %q %q", OpName(NumOpen), OpName(NumMemCAS))
	}
	if OpName(99) != "sys99" {
		t.Fatalf("OpName fallback = %q", OpName(99))
	}
}
