package core

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"vqf/internal/minifilter"
	"vqf/internal/workload"
)

// churnFilter is the surface TestWriteCommitChurn drives.
type churnFilter interface {
	Insert(h uint64) bool
	Remove(h uint64) bool
	Contains(h uint64) bool
	InsertBatch(hs []uint64) int
	RemoveBatch(hs []uint64) int
	ContainsBatch(hs []uint64, dst []bool) []bool
	Count() uint64
}

// roundTrip serializes w, reads it back as a plain filter through read, and
// audits the copy's structure.
func roundTrip[F interface{ CheckInvariants() error }](w io.WriterTo, read func(io.Reader) (F, error)) error {
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		return err
	}
	g, err := read(&buf)
	if err != nil {
		return err
	}
	return g.CheckInvariants()
}

// roundTripShards is roundTrip over every shard of a sharded filter.
func roundTripShards[S io.WriterTo, F interface{ CheckInvariants() error }](shards []S, read func(io.Reader) (F, error)) error {
	for i, s := range shards {
		if err := roundTrip(s, read); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// TestWriteCommitChurn races the write commit — the ordered stores behind
// InsertUnlock and RemoveUnlock — against the lock-free readers on a
// 64-block filter, so that writes keep landing on the blocks readers copy.
// Four batch writers insert and then remove 64-key batches drawn from one
// shared pool, so their batches overlap; two single-key writers churn their
// own keys. Contains and ContainsBatch readers re-check a resident set that
// is never removed. At quiescence no resident may be lost, Count must equal
// the residents plus the writers' net successes, and the filter must pass
// CheckInvariants after a round trip through WriteTo. It runs with the
// assembly kernels on and off: the race detector does not see the assembly
// commit's stores, so it checks the portable body's atomics only on the
// generic pass, and this test is what checks the assembly's ordering. CI
// runs it repeatedly at GOMAXPROCS 4.
func TestWriteCommitChurn(t *testing.T) {
	const slots = 64 * 48 // 64 Block8s; the 16-bit filters get 128 blocks of 28 slots
	cases := []struct {
		name string
		mk   func() (churnFilter, func() error)
	}{
		{"CFilter8", func() (churnFilter, func() error) {
			f := NewCFilter8(slots, Options{})
			return f, func() error { return roundTrip(f, ReadFilter8) }
		}},
		{"CFilter16", func() (churnFilter, func() error) {
			f := NewCFilter16(slots, Options{})
			return f, func() error { return roundTrip(f, ReadFilter16) }
		}},
		{"Sharded8", func() (churnFilter, func() error) {
			f := NewSharded8(slots, 2, Options{})
			return f, func() error { return roundTripShards(f.shards, ReadFilter8) }
		}},
		{"Sharded16", func() (churnFilter, func() error) {
			f := NewSharded16(slots, 2, Options{})
			return f, func() error { return roundTripShards(f.shards, ReadFilter16) }
		}},
	}
	defer minifilter.SetAsmKernels(true)
	for _, asm := range []bool{true, false} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/asm=%v", c.name, asm), func(t *testing.T) {
				minifilter.SetAsmKernels(asm)
				f, check := c.mk()
				writeCommitChurn(t, f)
				if err := check(); err != nil {
					t.Fatalf("after round trip: %v", err)
				}
			})
		}
	}
}

func writeCommitChurn(t *testing.T, f churnFilter) {
	res := workload.NewStream(61).Keys(64 * 48 / 3)
	for _, h := range res {
		if !f.Insert(h) {
			t.Fatal("resident insert failed at a third of capacity")
		}
	}
	pool := workload.NewStream(62).Keys(256)

	const batchWriters, keyWriters, rounds = 4, 2, 150
	var net atomic.Int64
	var writers, readers sync.WaitGroup
	for w := 0; w < batchWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for r := 0; r < rounds; r++ {
				off := (r*37 + w*61) % (len(pool) - 64)
				batch := pool[off : off+64]
				n := f.InsertBatch(batch)
				net.Add(int64(n))
				if n != len(batch) {
					t.Errorf("InsertBatch = %d of %d below half load", n, len(batch))
					return
				}
				m := f.RemoveBatch(batch)
				net.Add(-int64(m))
				if m != len(batch) {
					t.Errorf("RemoveBatch = %d of %d own keys", m, len(batch))
					return
				}
			}
		}(w)
	}
	for w := 0; w < keyWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			s := workload.NewStream(uint64(700 + w))
			var live []uint64
			for i := 0; i < rounds*64; i++ {
				if len(live) == 32 || i == rounds*64-1 {
					for _, h := range live {
						if !f.Remove(h) {
							t.Errorf("own key %#x missing", h)
							return
						}
						net.Add(-1)
					}
					live = live[:0]
				}
				if h := s.Next(); f.Insert(h) {
					net.Add(1)
					live = append(live, h)
				}
			}
			for _, h := range live {
				if f.Remove(h) {
					net.Add(-1)
				}
			}
		}(w)
	}
	var stop atomic.Bool
	lost := func(i int) {
		t.Errorf("resident %d (%#x) lost under write churn", i, res[i])
		stop.Store(true)
	}
	readers.Add(2)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			for i, h := range res {
				if !f.Contains(h) {
					lost(i)
					return
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		dst := make([]bool, len(res))
		for !stop.Load() {
			for i, ok := range f.ContainsBatch(res, dst) {
				if !ok {
					lost(i)
					return
				}
			}
		}
	}()
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, h := range res {
		if !f.Contains(h) {
			t.Fatalf("resident %d (%#x) lost at quiescence", i, h)
		}
	}
	if want := uint64(int64(len(res)) + net.Load()); f.Count() != want {
		t.Fatalf("Count = %d, want %d residents plus net writes", f.Count(), want)
	}
}
