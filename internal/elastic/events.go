package elastic

import (
	"time"

	"vqf/internal/telemetry"
)

// Rare-event hooks: cascade growth is the elastic filter's defining latency
// hazard (a multi-millisecond allocation on the insert path), so each
// growth records a structured event — which level was appended, how many
// slots it allocated, and how long the build took — and is wrapped in a
// runtime/trace task so an execution trace shows exactly which goroutine
// paid for it. The ring also propagates into each level's concurrent core
// filter, so seqlock fallbacks inside the cascade land in the same stream.

// SetEventRing attaches r as the cascade's rare-event sink. Call before
// the filter sees traffic (or, on CFilter, before sharing it across
// goroutines).
func (s *cascadeState) SetEventRing(r *telemetry.Ring) {
	s.ring = r
	for _, lvl := range s.list() {
		setLevelRing(lvl, r)
	}
}

// SetEventRing attaches r to every shard's cascade. Call before sharing.
func (f *Sharded) SetEventRing(r *telemetry.Ring) {
	for _, s := range f.shards {
		s.SetEventRing(r)
	}
}

// setLevelRing forwards the ring to a level's core filter when that filter
// has event hooks (the concurrent variants; sequential cores never fall
// back and take no ring).
func setLevelRing(lvl *level, r *telemetry.Ring) {
	if h, ok := lvl.filter.(interface{ SetEventRing(*telemetry.Ring) }); ok {
		h.SetEventRing(r)
	}
}

// buildLevel is newLevel plus observability: a trace task spanning the
// build, and a growth event (A=level index, B=allocated slots, C=build ns)
// in the cascade's ring, of the cascade's growEvent kind (EvElasticGrow on
// Filter, EvElasticSwap on CFilter).
func (s *cascadeState) buildLevel(i int) *level {
	end := telemetry.Task("vqf.elastic.grow")
	start := time.Now()
	lvl := s.newLevel(i)
	d := time.Since(start)
	end()
	s.ring.Record(s.growEvent, uint64(i), lvl.filter.Capacity(), uint64(d))
	setLevelRing(lvl, s.ring)
	return lvl
}
