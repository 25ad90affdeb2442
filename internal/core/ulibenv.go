package core

import (
	"fmt"
	"sync"

	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/ulib"
)

// SpawnHandle spawns a child of parent and returns a syscall handle for
// it without starting a program goroutine — used by library-level
// harnesses that drive the process themselves.
func (s *System) SpawnHandle(parent *sys.Sys, name string) (*sys.Sys, error) {
	pid, e := parent.Spawn(name)
	if e != sys.EOK {
		return nil, fmt.Errorf("core: spawn %q: %v", name, e)
	}
	h, err := s.newHandler(s.pickCore())
	if err != nil {
		return nil, err
	}
	return sys.NewSys(pid, h), nil
}

// NewThreadHandle returns an additional syscall handle for an existing
// process — a second thread sharing its address space, pinned to the
// next core round-robin.
func (s *System) NewThreadHandle(of *sys.Sys) (*sys.Sys, error) {
	h, err := s.newHandler(s.pickCore())
	if err != nil {
		return nil, err
	}
	return sys.NewSys(of.PID(), h), nil
}

// ulibEnv implements ulib.Env: each NewProcess boots a dedicated small
// system, so repeated verification runs never exhaust NR thread slots.
type ulibEnv struct {
	mu      sync.Mutex
	systems map[*sys.Sys]*System
}

func newUlibEnv() *ulibEnv {
	return &ulibEnv{systems: make(map[*sys.Sys]*System)}
}

// NewProcess implements ulib.Env.
func (e *ulibEnv) NewProcess() (*sys.Sys, error) {
	system, err := Boot(Config{Cores: 4, MemBytes: 256 << 20})
	if err != nil {
		return nil, err
	}
	initSys, err := system.Init()
	if err != nil {
		return nil, err
	}
	h, err := system.SpawnHandle(initSys, "ulib-proc")
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.systems[h] = system
	e.mu.Unlock()
	return h, nil
}

// NewThread implements ulib.Env.
func (e *ulibEnv) NewThread(of *sys.Sys) (*sys.Sys, error) {
	e.mu.Lock()
	system := e.systems[of]
	e.mu.Unlock()
	if system == nil {
		return nil, fmt.Errorf("core: unknown process handle")
	}
	return system.NewThreadHandle(of)
}

var _ ulib.Env = (*ulibEnv)(nil)
