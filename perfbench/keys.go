package main

import (
	"math/bits"

	"vqf/internal/hashing"
	stream "vqf/internal/workload"
)

// golden is splitmix64's state increment: the i-th value of
// stream.NewStream(s) is stream.NewStream(s + i·golden).Next().
const golden = 0x9e3779b97f4a7c15

// streamAt returns value i of the workload stream seeded with seed, so a
// live set is an index range and never a stored key array.
func streamAt(seed, i uint64) uint64 { return stream.NewStream(seed + i*golden).Next() }

// churn describes the sliding-window live set of the cascade workload: key
// i lives for window insertions, except every stride-th key, which lives
// window·lifeMul insertions. Set-up fills the window once; after epoch
// insertions the workload starts over with a fresh filter.
type churn struct {
	window, stride, lifeMul, epoch uint64
}

// keyspace derives every key a run sends from its seed. Live keys are
// indices into one stream, never-inserted keys come from a disjoint one.
// FIFO workloads keep the live set [lo, hi); churn workloads derive it from
// hi alone.
type keyspace struct {
	liveSeed, absentSeed, hashSeed uint64
	rng                            stream.Stream
	lo, hi, absent                 uint64
	lastInsert                     uint64
	churn                          churn
}

func newKeyspace(seed uint64, c churn) *keyspace {
	return &keyspace{
		liveSeed:   hashing.Mix64(seed ^ 0x6c697665),
		absentSeed: hashing.Mix64(seed ^ 0x61627365),
		hashSeed:   seed,
		rng:        *stream.NewStream(hashing.Mix64(seed ^ 0x726e67)),
		churn:      c,
	}
}

// restart empties the live set for a new epoch. The lookup sampler and the
// never-inserted stream continue.
func (k *keyspace) restart() { k.lo, k.hi, k.lastInsert = 0, 0, 0 }

// below returns a uniform value in [0, n).
func (k *keyspace) below(n uint64) uint64 {
	hi, _ := bits.Mul64(k.rng.Next(), n)
	return hi
}

// fill generates one segment's keys for shape sh and advances the live set.
// rawKeys selects whether the system under test receives raw keys (and
// hashes them itself) or the stream values as pre-hashed keys.
func (k *keyspace) fill(s *segment, sh segShape, rawKeys bool) {
	s.op, s.live = sh.op, sh.live
	s.keys, s.idx = s.keys[:0], s.idx[:0]
	switch sh.op {
	case opInsert:
		for i := uint64(0); i < uint64(sh.n); i++ {
			s.idx = append(s.idx, k.hi+i)
		}
		k.hi += uint64(sh.n)
		k.lastInsert = uint64(sh.n)
	case opRemove:
		k.expire(s, sh.n)
	case opContains:
		for i := 0; i < sh.live; i++ {
			s.idx = append(s.idx, k.liveIndex())
		}
	}
	for _, i := range s.idx {
		s.keys = append(s.keys, streamAt(k.liveSeed, i))
	}
	if sh.op == opContains {
		for i := sh.live; i < sh.n; i++ {
			s.keys = append(s.keys, streamAt(k.absentSeed, k.absent))
			k.absent++
		}
	}
	s.grow(len(s.keys))
	if !rawKeys {
		s.hs = s.keys
		return
	}
	s.hs = s.hsBuf[:len(s.keys)]
	for i, key := range s.keys {
		s.hs[i] = hashing.HashUint64(key, k.hashSeed)
	}
}

// expire appends the indices of the keys that leave the live set: the n
// oldest on a FIFO workload; on a churn workload, those the last insert
// pushed past their lifetime.
func (k *keyspace) expire(s *segment, n int) {
	c := k.churn
	if c.window == 0 {
		for i := uint64(0); i < uint64(n); i++ {
			s.idx = append(s.idx, k.lo+i)
		}
		k.lo += uint64(n)
		return
	}
	short, long := c.window, c.window*c.lifeMul
	for i := k.hi - k.lastInsert; i < k.hi; i++ {
		if i >= short && (i-short)%c.stride != 0 {
			s.idx = append(s.idx, i-short)
		}
		if i >= long && (i-long)%c.stride == 0 {
			s.idx = append(s.idx, i-long)
		}
	}
}

// liveIndex returns a uniformly chosen live key index.
func (k *keyspace) liveIndex() uint64 {
	c := k.churn
	if c.window == 0 {
		return k.lo + k.below(k.hi-k.lo)
	}
	recent := min(c.window, k.hi)
	old := (min(c.window*c.lifeMul, k.hi) - recent) / c.stride
	r := k.below(recent + old)
	if r < recent {
		return k.hi - recent + r
	}
	// Stragglers sit at multiples of stride below the recent window.
	return (k.hi-recent-1)/c.stride*c.stride - (r-recent)*c.stride
}
