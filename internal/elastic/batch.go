package elastic

// Batched lookups over the cascade. A naive batched Contains would probe
// every level for every key; instead the working set shrinks as it descends:
// keys found at a level drop out, so older (smaller, colder) levels only see
// the residue. For workloads where most hits land in the newest level this
// probes each key about once, and each level's probes go through its
// filter's ContainsBatch.

// cascadeScratch holds the reusable working-set buffers of a batched cascade
// lookup.
type cascadeScratch struct {
	keys []uint64
	pos  []int32
	hits []bool
}

func (s *cascadeScratch) grow(n int) {
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.pos = make([]int32, n)
	}
}

// containsBatchLevels resolves membership for every key of hs across ls,
// newest level first, writing results in input order (out[i] answers hs[i]).
// Every position of out is written exactly once: true when some level hits,
// false for the residue that survives all levels.
func containsBatchLevels(ls []*level, hs []uint64, dst []bool, s *cascadeScratch) []bool {
	if cap(dst) < len(hs) {
		dst = make([]bool, len(hs))
	}
	out := dst[:len(hs)]
	s.grow(len(hs))
	keys, pos := s.keys[:len(hs)], s.pos[:len(hs)]
	copy(keys, hs)
	for i := range pos {
		pos[i] = int32(i)
	}
	n := len(keys)
	for li := len(ls) - 1; li >= 0 && n > 0; li-- {
		s.hits = ls[li].filter.ContainsBatch(keys[:n], s.hits)
		m := 0
		for i := 0; i < n; i++ {
			if s.hits[i] {
				out[pos[i]] = true
			} else {
				keys[m], pos[m] = keys[i], pos[i]
				m++
			}
		}
		n = m
	}
	for i := 0; i < n; i++ {
		out[pos[i]] = false
	}
	return out
}

// ContainsBatch reports membership for every key of hs in input order:
// out[i] answers hs[i]. The result reuses dst when it has sufficient
// capacity (dst may be nil). Like every Filter method it is
// single-goroutine; the working-set buffers live on the filter so
// steady-state calls allocate nothing.
func (f *Filter) ContainsBatch(hs []uint64, dst []bool) []bool {
	return containsBatchLevels(f.list(), hs, dst, &f.scratch)
}

// ContainsBatch reports membership for every key of hs in input order; see
// Filter.ContainsBatch. Safe for concurrent use: it works on one atomic
// snapshot of the level list and keeps its working set on the stack.
func (f *CFilter) ContainsBatch(hs []uint64, dst []bool) []bool {
	var s cascadeScratch
	return containsBatchLevels(f.list(), hs, dst, &s)
}
