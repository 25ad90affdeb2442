package core

import (
	"bytes"
	"testing"

	"github.com/verified-os/vnros/internal/fs"
	"github.com/verified-os/vnros/internal/sys"
)

// TestReadDestinationIsTheIssuers: a per-call Read crosses with the
// caller's buffer, which rides in the logged op to every replica, and
// only the issuer replica's apply writes it, before the call returns. On
// a two-replica kernel (the handle on replica 0, nothing registered on
// replica 1, so replica 1 applies the read only when synced), checked
// and raw, on both kernels: a read near the end of the file fills the
// bytes it counts and leaves the rest of the buffer as it was; the caller
// then overwrites the buffer, and syncing the other replica — which
// applies the read only now — leaves it unchanged.
func TestReadDestinationIsTheIssuers(t *testing.T) {
	for _, shards := range []int{0, 2} {
		s, err := Boot(Config{Cores: 28, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if s.NumReplicas() != 2 {
			t.Fatalf("shards=%d: %d replicas", shards, s.NumReplicas())
		}
		init, err := s.Init()
		if err != nil {
			t.Fatal(err)
		}
		contents := make([]byte, 8<<10)
		for i := range contents {
			contents[i] = byte(i*7 + 1)
		}
		fd, e := init.Open("/dest", sys.OCreate|sys.ORdWr)
		if e != sys.EOK {
			t.Fatal(e)
		}
		if _, e := init.Write(fd, contents); e != sys.EOK {
			t.Fatal(e)
		}
		syncOther := func() {
			for i := range s.NumShards() {
				s.InspectProcShard(i, 1, func(*sys.Kernel) {})
				s.InspectFsShard(i, 1, func(*sys.Kernel) {})
			}
		}
		for _, checked := range []bool{false, true} {
			h, err := s.RawSysOn(init.PID(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if checked {
				h.EnableContract()
			}
			syncOther()
			const tail = 100
			buf := bytes.Repeat([]byte{0xee}, 512)
			if _, e := h.Seek(fd, int64(len(contents)-tail), fs.SeekSet); e != sys.EOK {
				t.Fatal(e)
			}
			n, e := h.Read(fd, buf)
			if e != sys.EOK || n != tail {
				t.Fatalf("shards=%d checked=%v: read %d, %v; want %d", shards, checked, n, e, tail)
			}
			if !bytes.Equal(buf[:tail], contents[len(contents)-tail:]) {
				t.Errorf("shards=%d checked=%v: the counted bytes are not the file's", shards, checked)
			}
			if !bytes.Equal(buf[tail:], bytes.Repeat([]byte{0xee}, len(buf)-tail)) {
				t.Errorf("shards=%d checked=%v: the read wrote the buffer past its count %d", shards, checked, n)
			}
			for i := range buf {
				buf[i] = 0x5a
			}
			syncOther()
			if !bytes.Equal(buf, bytes.Repeat([]byte{0x5a}, len(buf))) {
				t.Errorf("shards=%d checked=%v: the buffer changed after the read returned", shards, checked)
			}
			if err := h.ContractErr(); err != nil {
				t.Errorf("shards=%d checked=%v: %v", shards, checked, err)
			}
		}
		if err := s.CheckReplicaAgreement(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	}
}
