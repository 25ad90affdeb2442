package nr

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/verified-os/vnros/internal/lin"
	"github.com/verified-os/vnros/internal/verifier"
)

// RegisterObligations registers the node-replication verification
// conditions — the IronSync theorem of §4.3 in executable form:
// concurrent histories over an NR-replicated sequential structure are
// linearizable; replicas converge to identical states; responses match
// a sequential twin; and the log survives wraparound under concurrency.
func RegisterObligations(g *verifier.Registry) {
	registerMoreObligations(g)
	g.Register(
		verifier.Obligation{Module: "nr", Name: "histories-linearizable", Kind: verifier.KindLinearizability,
			Check: func(r *rand.Rand) error { return checkLinearizable(r, newOblKV) }},
		verifier.Obligation{Module: "nr", Name: "replicas-converge", Kind: verifier.KindInvariant,
			Check: func(r *rand.Rand) error {
				n := New(Options{Replicas: 3}, newOblKV)
				var wg sync.WaitGroup
				seeds := make([]int64, 6)
				for i := range seeds {
					seeds[i] = r.Int63()
				}
				for gI := 0; gI < 6; gI++ {
					wg.Add(1)
					go func(gI int) {
						defer wg.Done()
						rr := rand.New(rand.NewSource(seeds[gI]))
						c := n.MustRegister(gI % 3)
						for i := 0; i < 400; i++ {
							c.Execute(oblW{k: uint64(rr.Intn(64)), v: rr.Uint64()})
						}
					}(gI)
				}
				wg.Wait()
				var states []map[uint64]uint64
				for i := 0; i < 3; i++ {
					n.Replica(i).Inspect(func(d DataStructure[oblR, oblW, oblResp]) {
						src := d.(*oblKV).m
						cp := make(map[uint64]uint64, len(src))
						for k, v := range src {
							cp[k] = v
						}
						states = append(states, cp)
					})
				}
				for i := 1; i < 3; i++ {
					if len(states[i]) != len(states[0]) {
						return fmt.Errorf("replica %d size %d != %d", i, len(states[i]), len(states[0]))
					}
					for k, v := range states[0] {
						if states[i][k] != v {
							return fmt.Errorf("replica %d diverged at key %d", i, k)
						}
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "nr", Name: "matches-sequential-twin", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				// Single thread: every response must equal a plain
				// sequential map's response for the same op stream.
				n := New(Options{Replicas: 2}, newOblKV)
				c := n.MustRegister(0)
				ref := make(map[uint64]uint64)
				for i := 0; i < 2000; i++ {
					k := uint64(r.Intn(32))
					if r.Intn(3) == 0 {
						got := c.ExecuteRead(oblR{k: k})
						want, okW := ref[k]
						if got.ok != okW || got.v != want {
							return fmt.Errorf("read(%d) = %+v, ref (%d,%t)", k, got, want, okW)
						}
					} else {
						v := r.Uint64()
						got := c.Execute(oblW{k: k, v: v})
						want, okW := ref[k]
						if got.ok != okW || (okW && got.v != want) {
							return fmt.Errorf("write(%d) old = %+v, ref (%d,%t)", k, got, want, okW)
						}
						ref[k] = v
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "nr", Name: "log-wraparound-stress", Kind: verifier.KindSafety,
			Check: func(r *rand.Rand) error {
				// A tiny ring forces many reclamation cycles while one
				// replica has no active threads (helper path).
				n := New(Options{Replicas: 2, LogSize: 64}, newOblKV)
				var wg sync.WaitGroup
				for gI := 0; gI < 3; gI++ {
					wg.Add(1)
					go func(gI int) {
						defer wg.Done()
						c := n.MustRegister(0)
						for i := 0; i < 3000; i++ {
							c.Execute(oblW{k: uint64(gI), v: uint64(i)})
						}
					}(gI)
				}
				wg.Wait()
				idle := n.MustRegister(1)
				for gI := 0; gI < 3; gI++ {
					got := idle.ExecuteRead(oblR{k: uint64(gI)})
					if !got.ok || got.v != 2999 {
						return fmt.Errorf("after wraparound key %d = %+v", gI, got)
					}
				}
				if n.Tail() != 9000 {
					return fmt.Errorf("tail = %d, want 9000", n.Tail())
				}
				return nil
			}},
		verifier.Obligation{Module: "nr", Name: "reads-see-preceding-writes", Kind: verifier.KindLinearizability,
			Check: func(r *rand.Rand) error {
				// Real-time order across replicas: a read invoked after
				// a write returned must observe it.
				n := New(Options{Replicas: 2}, newOblKV)
				w := n.MustRegister(0)
				rd := n.MustRegister(1)
				for i := 0; i < 500; i++ {
					k, v := uint64(r.Intn(16)), r.Uint64()
					w.Execute(oblW{k: k, v: v})
					got := rd.ExecuteRead(oblR{k: k})
					if !got.ok || got.v != v {
						return fmt.Errorf("stale read at iter %d: %+v, want %d", i, got, v)
					}
				}
				return nil
			}},
		verifier.Obligation{Module: "nr", Name: "sharded-matches-reference", Kind: verifier.KindRefinement,
			Check: func(r *rand.Rand) error {
				s := NewSharded(4, Options{Replicas: 2}, newOblKV)
				th, err := s.Register(0)
				if err != nil {
					return err
				}
				ref := make(map[uint64]uint64)
				for i := 0; i < 1500; i++ {
					k := uint64(r.Intn(256))
					if r.Intn(3) == 0 {
						got := th.ExecuteRead(k, oblR{k: k})
						want, okW := ref[k]
						if got.ok != okW || got.v != want {
							return fmt.Errorf("sharded read(%d) diverged", k)
						}
					} else {
						v := r.Uint64()
						th.Execute(k, oblW{k: k, v: v})
						ref[k] = v
					}
				}
				return nil
			}},
	)
}

// oblKV is the sequential structure used by the NR obligations.
type oblKV struct{ m map[uint64]uint64 }

type oblR struct{ k uint64 }

type oblW struct{ k, v uint64 }

type oblResp struct {
	v  uint64
	ok bool
}

func newOblKV() DataStructure[oblR, oblW, oblResp] {
	return &oblKV{m: make(map[uint64]uint64)}
}

// DispatchRead implements DataStructure.
func (s *oblKV) DispatchRead(op oblR) oblResp {
	v, ok := s.m[op.k]
	return oblResp{v: v, ok: ok}
}

// DispatchWrite implements DataStructure.
func (s *oblKV) DispatchWrite(op oblW) oblResp {
	old, ok := s.m[op.k]
	s.m[op.k] = op.v
	return oblResp{v: old, ok: ok}
}

// checkLinearizable records a small concurrent history over create's
// data structure and checks it with the Wing–Gong checker.
func checkLinearizable(r *rand.Rand, create func() DataStructure[oblR, oblW, oblResp]) error {
	n := New(Options{Replicas: 2}, create)
	type opIn struct {
		read bool
		w    oblW
		k    uint64
	}
	rec := lin.NewRecorder[opIn, oblResp]()
	seeds := make([]int64, 4)
	for i := range seeds {
		seeds[i] = r.Int63()
	}
	var wg sync.WaitGroup
	for t := 0; t < 4; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seeds[t]))
			c := n.MustRegister(t % 2)
			for i := 0; i < 8; i++ {
				if rr.Intn(2) == 0 {
					in := opIn{w: oblW{k: uint64(rr.Intn(3)), v: uint64(t)<<32 | uint64(i)}}
					p := rec.Invoke(t, in)
					p.Return(c.Execute(in.w))
				} else {
					in := opIn{read: true, k: uint64(rr.Intn(3))}
					p := rec.Invoke(t, in)
					p.Return(c.ExecuteRead(oblR{k: in.k}))
				}
			}
		}(t)
	}
	wg.Wait()
	model := lin.Model[string, opIn, oblResp]{
		Init: func() string { return encodeKV(map[uint64]uint64{}) },
		Apply: func(s string, in opIn) (string, oblResp) {
			m := decodeKV(s)
			if in.read {
				v, ok := m[in.k]
				return s, oblResp{v: v, ok: ok}
			}
			old, ok := m[in.w.k]
			m[in.w.k] = in.w.v
			return encodeKV(m), oblResp{v: old, ok: ok}
		},
		Key:       func(s string) string { return s },
		EqualResp: func(a, b oblResp) bool { return a == b },
	}
	return lin.Check(model, rec.History())
}

// encodeKV/decodeKV give the model a comparable state representation.
func encodeKV(m map[uint64]uint64) string {
	// Keys are tiny (0..2); a fixed-width dump is canonical.
	out := ""
	for k := uint64(0); k < 4; k++ {
		if v, ok := m[k]; ok {
			out += fmt.Sprintf("%d=%d;", k, v)
		}
	}
	return out
}

func decodeKV(s string) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	var k, v uint64
	for len(s) > 0 {
		n, _ := fmt.Sscanf(s, "%d=%d;", &k, &v)
		if n != 2 {
			break
		}
		m[k] = v
		idx := 0
		for idx < len(s) && s[idx] != ';' {
			idx++
		}
		s = s[idx+1:]
	}
	return m
}
