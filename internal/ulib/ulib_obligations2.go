package ulib

import (
	"fmt"
	"math/rand"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/sys"
	"github.com/verified-os/vnros/internal/verifier"
)

// registerMoreObligations is the third library wave: condition-variable
// producer/consumer over process memory, line-oriented stdio round
// trips, seek-relative semantics with buffered read-ahead, and calloc
// zeroing through block reuse.
func registerMoreObligations(g *verifier.Registry, env Env) {
	g.Register(
		verifier.Obligation{Module: "ulib", Name: "condvar-producer-consumer", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				rt := New(s)
				m, err := rt.NewMutex()
				if err != nil {
					return err
				}
				cv, err := rt.NewCond()
				if err != nil {
					return err
				}
				slot, err := rt.newWord() // shared "queue depth" word
				if err != nil {
					return err
				}
				const items = 30
				th, err := env.NewThread(s)
				if err != nil {
					return err
				}
				tm, tcv, tslot := &Mutex{m.on(th)}, &Cond{cv.on(th)}, slot.on(th)
				consumed := 0
				done := make(chan error, 1)
				go func() {
					done <- func() error {
						for consumed < items {
							if err := tm.Lock(); err != nil {
								return err
							}
							for {
								v, err := tslot.load()
								if err != nil {
									return err
								}
								if v > 0 {
									if err := tslot.store(v - 1); err != nil {
										return err
									}
									consumed++
									break
								}
								if err := tcv.Wait(tm); err != nil {
									return err
								}
							}
							if err := tm.Unlock(); err != nil {
								return err
							}
						}
						return nil
					}()
				}()
				for i := 0; i < items; i++ {
					if err := m.Lock(); err != nil {
						return err
					}
					v, err := slot.load()
					if err != nil {
						return err
					}
					if err := slot.store(v + 1); err != nil {
						return err
					}
					if err := m.Unlock(); err != nil {
						return err
					}
					if err := cv.Signal(); err != nil {
						return err
					}
				}
				// Every Signal must have moved the sequence: a waiter that
				// snapshots before one and sleeps after it would otherwise
				// sleep through it, and only a later wake would hide that.
				if seq, err := cv.load(); err != nil || seq < items {
					return fmt.Errorf("sequence = %d, %v after %d signals", seq, err, items)
				}
				// Keep signalling until the consumer drains (spurious-
				// wakeup-safe protocol may need extra nudges).
				for {
					select {
					case err := <-done:
						if err == nil && consumed != items {
							err = fmt.Errorf("consumed %d of %d", consumed, items)
						}
						return err
					default:
						if err := cv.Broadcast(); err != nil {
							return err
						}
					}
				}
			}},
		verifier.Obligation{Module: "ulib", Name: "stdio-line-round-trip", Kind: verifier.KindRoundTrip,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				rt := New(s)
				f, err := rt.Open("/lines", fs.OCreate|fs.ORdWr)
				if err != nil {
					return err
				}
				var want []string
				for i := 0; i < 40; i++ {
					n := r.Intn(120)
					line := make([]byte, n)
					for j := range line {
						line[j] = byte('a' + r.Intn(26))
					}
					want = append(want, string(line))
					if _, err := f.Printf("%s\n", line); err != nil {
						return err
					}
				}
				if _, err := f.Seek(0, fs.SeekSet); err != nil {
					return err
				}
				for i, w := range want {
					got, err := f.ReadLine()
					if err != nil {
						return fmt.Errorf("line %d: %w", i, err)
					}
					if got != w {
						return fmt.Errorf("line %d = %q, want %q", i, got, w)
					}
				}
				return f.Close()
			}},
		verifier.Obligation{Module: "ulib", Name: "seek-cur-accounts-read-ahead", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				rt := New(s)
				f, err := rt.Open("/sk", fs.OCreate|fs.ORdWr)
				if err != nil {
					return err
				}
				payload := make([]byte, 3000)
				for i := range payload {
					payload[i] = byte(i)
				}
				if _, err := f.Write(payload); err != nil {
					return err
				}
				if _, err := f.Seek(0, fs.SeekSet); err != nil {
					return err
				}
				logical := int64(0)
				for i := 0; i < 60; i++ {
					if r.Intn(2) == 0 {
						n := 1 + r.Intn(50)
						buf := make([]byte, n)
						got, err := f.Read(buf)
						if err != nil {
							return err
						}
						for j := 0; j < got; j++ {
							if buf[j] != byte(logical+int64(j)) {
								return fmt.Errorf("read at %d returned wrong byte", logical)
							}
						}
						logical += int64(got)
					} else {
						delta := int64(r.Intn(41)) - 20
						target := logical + delta
						if target < 0 || target > int64(len(payload)) {
							continue
						}
						pos, err := f.Seek(delta, fs.SeekCur)
						if err != nil {
							return err
						}
						if pos != target {
							return fmt.Errorf("SeekCur(%+d) from %d = %d, want %d (read-ahead not accounted)",
								delta, logical, pos, target)
						}
						logical = target
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "ulib", Name: "calloc-zeroes-reused-blocks", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				s, err := env.NewProcess()
				if err != nil {
					return err
				}
				rt := New(s)
				for i := 0; i < 40; i++ {
					n := uint64(8 + r.Intn(200))
					va, err := rt.Malloc(n)
					if err != nil {
						return err
					}
					if err := rt.Memset(va, 0xAA, n); err != nil {
						return err
					}
					if err := rt.Free(va); err != nil {
						return err
					}
					vb, err := rt.Calloc(n)
					if err != nil {
						return err
					}
					buf := make([]byte, n)
					if e := s.MemRead(vb, buf); e != sys.EOK {
						return errnoErr("read calloc", e)
					}
					for j, b := range buf {
						if b != 0 {
							return fmt.Errorf("calloc byte %d = %#x (dirty reuse)", j, b)
						}
					}
					if err := rt.Free(vb); err != nil {
						return err
					}
				}
				return nil
			}},
	)
}
