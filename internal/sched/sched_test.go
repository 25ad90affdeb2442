package sched

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// parked counts the goroutines asleep in a sync.Cond wait. Only this
// package's tests run here, so every such goroutine is a WaitQueue
// waiter.
func parked() int {
	buf := make([]byte, 1<<16)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("[sync.Cond.Wait"))
}

// release frees every parked waiter by hand rather than through Wake, so
// a broken Wake fails the test instead of hanging it.
func release(w *WaitQueue) {
	w.mu.Lock()
	w.seq++
	w.mu.Unlock()
	w.cond.Broadcast()
}

// waitReturns reports whether Wait(ticket) returns without parking. A
// waiter that parks instead is released before it returns false.
func waitReturns(w *WaitQueue, ticket uint64) bool {
	done := make(chan struct{})
	go func() {
		w.Wait(ticket)
		close(done)
	}()
	for {
		select {
		case <-done:
			return true
		default:
		}
		if parked() > 0 {
			release(w)
			<-done
			return false
		}
		runtime.Gosched()
	}
}

func TestWaitQueue(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, w *WaitQueue)
	}{
		{"wake between prepare and wait returns at once", func(t *testing.T, w *WaitQueue) {
			ticket := w.Prepare()
			// The waker fires while the waiter re-checks its condition.
			woke := make(chan struct{})
			go func() {
				w.Wake()
				close(woke)
			}()
			<-woke
			if !waitReturns(w, ticket) {
				t.Fatal("Wait parked through a Wake that followed its Prepare")
			}
		}},
		{"wake with no waiter is remembered by the ticket holder", func(t *testing.T, w *WaitQueue) {
			ticket := w.Prepare()
			w.Wake()
			w.Wake()
			if !waitReturns(w, ticket) {
				t.Fatal("Wait parked through a Wake that had no waiter")
			}
			// The bell was remembered by the sequence, not banked: a
			// ticket taken after it parks until the next Wake.
			if waitReturns(w, w.Prepare()) {
				t.Fatal("a ticket taken after the Wake returned without one")
			}
		}},
		{"one wake releases every parked waiter", func(t *testing.T, w *WaitQueue) {
			const waiters = 4
			var wg sync.WaitGroup
			var returned atomic.Int32
			for range waiters {
				ticket := w.Prepare()
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.Wait(ticket)
					returned.Add(1)
				}()
			}
			for parked() < waiters {
				if returned.Load() > 0 {
					release(w)
					wg.Wait()
					t.Fatal("a waiter returned before any Wake")
				}
				runtime.Gosched()
			}
			w.Wake()
			wg.Wait() // a Wake that releases one waiter hangs here
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, NewWaitQueue()) })
	}
}
