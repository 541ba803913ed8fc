package main

import (
	"context"
	"fmt"
	"time"

	"vqf"
	"vqf/internal/elastic"
	"vqf/internal/hashing"
	"vqf/internal/minifilter"
	"vqf/internal/service"
	"vqf/internal/stats"
	"vqf/internal/swar"
)

// statser is implemented by rungs whose operation counters feed per-layer
// ratios.
type statser interface {
	opStats() stats.OpCounts
}

// cascader is implemented by the cascade system: structural counters, a
// cheap signature that changes on every structural op, and the summed
// per-level probe count.
type cascader interface {
	cascade() stats.CascadeSnapshot
	sig() uint64
	probes() uint64
}

// filterSystem adapts a vqf.Filter to system; the three public entry
// points it can drive are picked by the embedding type.
type filterSystem struct{ f *vqf.Filter }

func (t filterSystem) load(s *segment) (int, error) { return t.f.AddHashBatch(s.hs), nil }
func (t filterSystem) capacity() uint64             { return t.f.Capacity() }
func (t filterSystem) bytes() uint64                { return t.f.SizeBytes() }
func (t filterSystem) items() uint64                { return t.f.Count() }
func (t filterSystem) fpr() float64                 { return t.f.FalsePositiveRate() * t.f.LoadFactor() }
func (t filterSystem) close() error                 { return nil }
func (t filterSystem) opStats() stats.OpCounts      { return t.f.Stats() }

// facadeBatch sends each segment as one pre-hashed batch call. With raw
// set, it first hashes the raw keys with the filter's seed, as a server
// does before calling into the library.
type facadeBatch struct {
	filterSystem
	raw  bool
	seed uint64
	buf  []uint64
}

func (t *facadeBatch) hashes(s *segment) []uint64 {
	if !t.raw {
		return s.keys
	}
	if cap(t.buf) < len(s.keys) {
		t.buf = make([]uint64, len(s.keys))
	}
	hs := t.buf[:len(s.keys)]
	for i, k := range s.keys {
		hs[i] = hashing.HashUint64(k, t.seed)
	}
	return hs
}

func (t *facadeBatch) load(s *segment) (int, error)   { return t.f.AddHashBatch(t.hashes(s)), nil }
func (t *facadeBatch) insert(s *segment) (int, error) { return t.f.AddHashBatch(t.hashes(s)), nil }
func (t *facadeBatch) remove(s *segment) (int, error) { return t.f.RemoveHashBatch(t.hashes(s)), nil }
func (t *facadeBatch) contains(s *segment, dst []bool) ([]bool, error) {
	return t.f.ContainsHashBatch(t.hashes(s), dst), nil
}

// elasticSystem drives a vqf.Elastic with pre-hashed batch calls.
type elasticSystem struct{ e *vqf.Elastic }

func (t elasticSystem) load(s *segment) (int, error)   { return t.e.AddHashBatch(s.keys), nil }
func (t elasticSystem) insert(s *segment) (int, error) { return t.e.AddHashBatch(s.keys), nil }
func (t elasticSystem) remove(s *segment) (int, error) { return t.e.RemoveHashBatch(s.keys), nil }
func (t elasticSystem) contains(s *segment, dst []bool) ([]bool, error) {
	return t.e.ContainsHashBatch(s.keys, dst), nil
}
func (t elasticSystem) capacity() uint64               { return t.e.Capacity() }
func (t elasticSystem) bytes() uint64                  { return t.e.SizeBytes() }
func (t elasticSystem) items() uint64                  { return t.e.Count() }
func (t elasticSystem) fpr() float64                   { return t.e.FalsePositiveRate() }
func (t elasticSystem) close() error                   { return nil }
func (t elasticSystem) cascade() stats.CascadeSnapshot { return t.e.CascadeSnapshot() }
func (t elasticSystem) sig() uint64                    { return uint64(t.e.Levels())<<48 ^ t.e.SizeBytes() }
func (t elasticSystem) probes() uint64                 { return t.e.Stats().BatchKeys }

// serviceSystem is an in-process vqfd on loopback with one binary-protocol
// client connection.
type serviceSystem struct {
	srv  *service.Server
	cl   *service.Client
	name string
}

func newServiceSystem(spec service.Spec) (*serviceSystem, error) {
	srv, err := service.New(service.Config{BinaryAddr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	t := &serviceSystem{srv: srv, name: spec.Name}
	if _, err := srv.Registry().Create(spec); err != nil {
		t.close()
		return nil, fmt.Errorf("create filter: %w", err)
	}
	if t.cl, err = service.Dial(srv.BinaryAddr()); err != nil {
		t.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return t, nil
}

func (t *serviceSystem) load(s *segment) (int, error)   { return t.cl.Insert(t.name, s.keys) }
func (t *serviceSystem) insert(s *segment) (int, error) { return t.cl.Insert(t.name, s.keys) }
func (t *serviceSystem) remove(s *segment) (int, error) { return t.cl.Remove(t.name, s.keys) }
func (t *serviceSystem) contains(s *segment, dst []bool) ([]bool, error) {
	return t.cl.Contains(t.name, s.keys, dst)
}

func (t *serviceSystem) info() service.Info {
	for _, in := range t.srv.Registry().List() {
		if in.Name == t.name {
			return in
		}
	}
	return service.Info{}
}

func (t *serviceSystem) capacity() uint64 { return t.info().SlotCap }
func (t *serviceSystem) bytes() uint64    { return t.info().SizeBytes }
func (t *serviceSystem) items() uint64    { return t.info().Count }
func (t *serviceSystem) fpr() float64 {
	return elastic.FPR8Full * t.info().LoadFactor
}
func (t *serviceSystem) opStats() stats.OpCounts {
	return t.srv.Registry().Sources()[t.name].Snapshot().Ops
}

func (t *serviceSystem) close() error {
	if t.cl != nil {
		t.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return t.srv.Shutdown(ctx)
}

// hashRung is the hashing layer alone: HashUint64 over every key.
type hashRung struct {
	seed uint64
	buf  []uint64
}

func (t *hashRung) hash(s *segment) (int, error) {
	if cap(t.buf) < len(s.keys) {
		t.buf = make([]uint64, len(s.keys))
	}
	buf := t.buf[:len(s.keys)]
	for i, k := range s.keys {
		buf[i] = hashing.HashUint64(k, t.seed)
	}
	return len(s.keys), nil
}

func (t *hashRung) load(s *segment) (int, error)   { return len(s.keys), nil }
func (t *hashRung) insert(s *segment) (int, error) { return t.hash(s) }
func (t *hashRung) remove(s *segment) (int, error) { return t.hash(s) }
func (t *hashRung) contains(s *segment, dst []bool) ([]bool, error) {
	_, err := t.hash(s)
	return dst[:len(s.keys)], err
}

// coreFilter is the batch surface of the internal/core filters the ladder
// uses as twins.
type coreFilter interface {
	InsertBatch(hs []uint64) int
	RemoveBatch(hs []uint64) int
	ContainsBatch(hs []uint64, dst []bool) []bool
	Stats() stats.OpCounts
	SizeBytes() uint64
}

// coreRung drives an internal/core filter with one batch call per segment.
type coreRung struct{ f coreFilter }

func (t coreRung) load(s *segment) (int, error)   { return t.f.InsertBatch(s.hs), nil }
func (t coreRung) insert(s *segment) (int, error) { return t.f.InsertBatch(s.hs), nil }
func (t coreRung) remove(s *segment) (int, error) { return t.f.RemoveBatch(s.hs), nil }
func (t coreRung) contains(s *segment, dst []bool) ([]bool, error) {
	return t.f.ContainsBatch(s.hs, dst), nil
}
func (t coreRung) opStats() stats.OpCounts { return t.f.Stats() }

// elasticRung drives an internal/elastic cascade the way the vqf.Elastic
// batch calls do: per-key inserts and removes, one batched lookup.
type elasticRung struct{ f *elastic.Filter }

func (t elasticRung) load(s *segment) (int, error) { return t.insert(s) }

func (t elasticRung) insert(s *segment) (int, error) {
	n := 0
	for _, h := range s.hs {
		if t.f.Insert(h) {
			n++
		}
	}
	return n, nil
}

func (t elasticRung) remove(s *segment) (int, error) {
	n := 0
	for _, h := range s.hs {
		if t.f.Remove(h) {
			n++
		}
	}
	return n, nil
}

func (t elasticRung) contains(s *segment, dst []bool) ([]bool, error) {
	return t.f.ContainsBatch(s.hs, dst), nil
}

// block is the SWAR block surface of minifilter.Block8 and Block16, with
// fingerprints of type F.
type block[F byte | uint16] interface {
	Reset()
	Occupancy() uint
	Insert(bucket uint, fp F) bool
	RemoveB(bucket uint, bcast uint64) bool
	Probe(bucket uint, bcast uint64) uint64
}

// splitter decomposes a key hash into its primary block, bucket,
// fingerprint and partner-block tag, as internal/core's split8/split16 do.
type splitter[F byte | uint16] func(h, mask uint64) (b1 uint64, bucket uint, fp F, tag uint64)

// mini is the minifilter layer alone: the SWAR block kernels on a block
// array with the core filter's geometry, size and two-choice placement,
// without the core's counters, options or batch pipeline. Placement matches
// the core's non-shortcut path: insert into the emptier of the primary and
// its xor-linked partner block, look up and remove in both. It is the one
// copy of that logic outside internal/core.
type mini[B any, F byte | uint16, P interface {
	*B
	block[F]
}] struct {
	blocks []B
	mask   uint64
	split  splitter[F]
	bcast  func(F) uint64
}

func newMini[B any, F byte | uint16, P interface {
	*B
	block[F]
}](nblocks uint64, split splitter[F], bcast func(F) uint64) *mini[B, F, P] {
	m := &mini[B, F, P]{blocks: make([]B, nblocks), mask: nblocks - 1, split: split, bcast: bcast}
	for i := range m.blocks {
		P(&m.blocks[i]).Reset()
	}
	return m
}

func newMini8(nblocks uint64) *mini[minifilter.Block8, byte, *minifilter.Block8] {
	return newMini[minifilter.Block8, byte, *minifilter.Block8](nblocks, func(h, mask uint64) (uint64, uint, byte, uint64) {
		bucket := uint(uint32(h&0xffff) * minifilter.B8Buckets >> 16)
		fp := byte(h >> 16)
		return (h >> 24) & mask, bucket, fp, uint64(bucket)<<8 | uint64(fp)
	}, swar.BroadcastByte)
}

func newMini16(nblocks uint64) *mini[minifilter.Block16, uint16, *minifilter.Block16] {
	return newMini[minifilter.Block16, uint16, *minifilter.Block16](nblocks, func(h, mask uint64) (uint64, uint, uint16, uint64) {
		bucket := uint(uint32(h&0xffff) * minifilter.B16Buckets >> 16)
		fp := uint16(h >> 16)
		return (h >> 32) & mask, bucket, fp, uint64(bucket)<<16 | uint64(fp)
	}, swar.BroadcastU16)
}

// pair returns the primary and partner blocks of h with its bucket and
// fingerprint.
func (m *mini[B, F, P]) pair(h uint64) (P, P, uint, F) {
	b1, bucket, fp, tag := m.split(h, m.mask)
	return P(&m.blocks[b1]), P(&m.blocks[hashing.AltIndex(b1, tag, m.mask)]), bucket, fp
}

func (m *mini[B, F, P]) load(s *segment) (int, error) { return m.insert(s) }

func (m *mini[B, F, P]) insert(s *segment) (int, error) {
	n := 0
	for _, h := range s.hs {
		b1, b2, bucket, fp := m.pair(h)
		if b2.Occupancy() < b1.Occupancy() {
			b1 = b2
		}
		if b1.Insert(bucket, fp) {
			n++
		}
	}
	return n, nil
}

func (m *mini[B, F, P]) remove(s *segment) (int, error) {
	n := 0
	for _, h := range s.hs {
		b1, b2, bucket, fp := m.pair(h)
		bc := m.bcast(fp)
		if b1.RemoveB(bucket, bc) || b2.RemoveB(bucket, bc) {
			n++
		}
	}
	return n, nil
}

func (m *mini[B, F, P]) contains(s *segment, dst []bool) ([]bool, error) {
	dst = dst[:len(s.hs)]
	for i, h := range s.hs {
		b1, b2, bucket, fp := m.pair(h)
		bc := m.bcast(fp)
		dst[i] = b1.Probe(bucket, bc) != 0 || b2.Probe(bucket, bc) != 0
	}
	return dst, nil
}
