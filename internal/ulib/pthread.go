package ulib

import (
	"encoding/binary"
	"fmt"

	"github.com/verified-os/vnros/internal/hw/mmu"
	"github.com/verified-os/vnros/internal/sys"
)

// This file is the pthreads sketch from §3/§4.1: a mutex, a condition
// variable and a semaphore whose whole state is one 32-bit word in
// *process memory*, built on the MemCAS32 atomic and the kernel futex —
// the exact "futexes from the kernel, userspace mutex on top" layering.
// The kernel's futex is the only wait queue; nothing here keeps one.

// word is a 32-bit cell of process memory seen through one thread's
// syscall handle: loads and compare-and-swaps stand in for the
// instructions, wait and wake are the futex syscalls keyed by its
// address. Threads share a primitive by wrapping the same Addr in their
// own handle.
type word struct {
	s    *sys.Sys
	Addr mmu.VAddr
}

// newWord allocates a zeroed word on the process heap.
func (rt *Runtime) newWord() (word, error) {
	va, err := rt.Calloc(4)
	return word{rt.S, va}, err
}

// on is the same word seen through another thread's handle.
func (w word) on(s *sys.Sys) word { return word{s, w.Addr} }

func (w word) load() (uint32, error) {
	var b [4]byte
	if e := w.s.MemRead(w.Addr, b[:]); e != sys.EOK {
		return 0, errnoErr("load", e)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// store is a plain (non-atomic) write.
func (w word) store(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	if e := w.s.MemWrite(w.Addr, b[:]); e != sys.EOK {
		return errnoErr("store", e)
	}
	return nil
}

// cas swaps old for new if the word holds old, and returns what it held.
func (w word) cas(old, new uint32) (uint32, bool, error) {
	cur, swapped, e := w.s.MemCAS32(w.Addr, old, new)
	if e != sys.EOK {
		return 0, false, errnoErr("cas", e)
	}
	return cur, swapped, nil
}

// add atomically adds delta.
func (w word) add(delta uint32) error {
	cur, err := w.load()
	for err == nil {
		swapped := false
		if cur, swapped, err = w.cas(cur, cur+delta); swapped {
			return nil
		}
	}
	return err
}

// wait sleeps while the word equals expected; the kernel's check and
// enqueue are atomic with respect to wake, so a change made before the
// call returns at once (EAGAIN) instead of being slept through.
func (w word) wait(expected uint32) error {
	if e := w.s.FutexWait(w.Addr, expected); e != sys.EOK && e != sys.EAGAIN {
		return errnoErr("futex wait", e)
	}
	return nil
}

// wake releases at most n sleepers.
func (w word) wake(n uint64) error {
	if _, e := w.s.FutexWake(w.Addr, n); e != sys.EOK {
		return errnoErr("futex wake", e)
	}
	return nil
}

// wakeAll is the count Broadcast passes to wake.
const wakeAll = 1 << 30

// Mutex is a futex-based mutex, following Drepper's "Futexes are Tricky"
// (the paper's [14]) mutex variant 2: the word is 0 (unlocked), 1
// (locked) or 2 (locked with possible waiters). The uncontended path is
// one CAS and no futex call.
type Mutex struct{ word }

// NewMutex allocates the mutex word on the process heap.
func (rt *Runtime) NewMutex() (*Mutex, error) {
	w, err := rt.newWord()
	if err != nil {
		return nil, err
	}
	return &Mutex{w}, nil
}

// AdoptMutex wraps an existing mutex word — how a second thread (with
// its own syscall handle) shares a mutex created by the first.
func (rt *Runtime) AdoptMutex(addr mmu.VAddr) (*Mutex, error) {
	if addr == 0 {
		return nil, fmt.Errorf("%w: nil mutex word", ErrSyscall)
	}
	return &Mutex{word{rt.S, addr}}, nil
}

// Lock acquires the mutex.
func (m *Mutex) Lock() error {
	// Fast path.
	if _, ok, err := m.cas(0, 1); err != nil || ok {
		return err
	}
	for {
		// Announce contention: 1 -> 2 (or take the lock 0 -> 2).
		cur, ok, err := m.cas(1, 2)
		if err != nil {
			return err
		}
		if !ok && cur == 0 {
			if _, took, err := m.cas(0, 2); err != nil || took {
				return err
			}
			continue
		}
		// Sleep while the word stays 2, then retake as 2: other waiters
		// may remain, so the contended state is kept.
		if err := m.wait(2); err != nil {
			return err
		}
		if _, took, err := m.cas(0, 2); err != nil || took {
			return err
		}
	}
}

// TryLock acquires without blocking.
func (m *Mutex) TryLock() (bool, error) {
	_, ok, err := m.cas(0, 1)
	return ok, err
}

// Unlock releases the mutex, waking a waiter if contended.
func (m *Mutex) Unlock() error {
	// Swap to 0 via CAS (we may hold it as 1 or 2).
	for {
		cur, ok, err := m.cas(1, 0)
		if err != nil || ok {
			return err // no waiters
		}
		if cur != 2 {
			return fmt.Errorf("%w: unlock of unlocked mutex (word=%d)", ErrSyscall, cur)
		}
		if _, ok, err := m.cas(2, 0); err != nil {
			return err
		} else if ok {
			return m.wake(1)
		}
	}
}

// Cond is a condition variable: the classic sequence-word protocol.
// Waiters snapshot the sequence under the mutex, release it, and sleep
// while the sequence is unchanged; signalers bump the sequence and wake.
type Cond struct{ word }

// NewCond allocates the sequence word.
func (rt *Runtime) NewCond() (*Cond, error) {
	w, err := rt.newWord()
	if err != nil {
		return nil, err
	}
	return &Cond{w}, nil
}

// Wait atomically releases m and sleeps until a signal arrives after
// the snapshot, then reacquires m. Spurious wakeups are possible;
// callers loop on their predicate, as with pthreads.
func (c *Cond) Wait(m *Mutex) error {
	snap, err := c.load()
	if err != nil {
		return err
	}
	if err := m.Unlock(); err != nil {
		return err
	}
	if err := c.wait(snap); err != nil {
		return err
	}
	return m.Lock()
}

// Signal wakes one waiter.
func (c *Cond) Signal() error {
	if err := c.add(1); err != nil {
		return err
	}
	return c.wake(1)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() error {
	if err := c.add(1); err != nil {
		return err
	}
	return c.wake(wakeAll)
}

// Semaphore is a counting semaphore: the word is the count.
type Semaphore struct{ word }

// NewSemaphore allocates the count word and sets it to initial.
func (rt *Runtime) NewSemaphore(initial uint32) (*Semaphore, error) {
	w, err := rt.newWord()
	if err == nil {
		err = w.store(initial)
	}
	if err != nil {
		return nil, err
	}
	return &Semaphore{w}, nil
}

// Acquire decrements the count, sleeping while it is zero.
func (s *Semaphore) Acquire() error {
	for {
		if ok, err := s.TryAcquire(); err != nil || ok {
			return err
		}
		if err := s.wait(0); err != nil {
			return err
		}
	}
}

// TryAcquire decrements without blocking.
func (s *Semaphore) TryAcquire() (bool, error) {
	c, err := s.load()
	for err == nil && c > 0 {
		swapped := false
		if c, swapped, err = s.cas(c, c-1); swapped {
			return true, nil
		}
	}
	return false, err
}

// Release increments the count and wakes one waiter.
func (s *Semaphore) Release() error {
	if err := s.add(1); err != nil {
		return err
	}
	return s.wake(1)
}

// Value returns the current count.
func (s *Semaphore) Value() (uint32, error) { return s.load() }
