package harness

import (
	"io"
	"sort"
	"sync"

	"vqf/internal/core"
	"vqf/internal/stats"
)

// Live-filter observability. Experiments register the filters they are
// exercising with Observe; anything holding the registry (cmd/vqfbench's
// -httpserve metrics endpoint) can render Prometheus snapshots of the
// in-flight filters with WriteObservedMetrics. Registration is best-effort:
// only filters exposing the stats introspection surface (the VQF variants)
// are kept, comparator filters are silently skipped.

// statsProvider is the introspection surface the VQF variants expose on top
// of the benchmark Filter interface.
type statsProvider interface {
	Stats() stats.OpCounts
	BlockOccupancies() []uint
	SlotsPerBlock() uint
	Geometry() *core.Geometry
}

var (
	obsMu sync.Mutex
	// observed maps exposition label → live snapshot closure. A re-register
	// under the same label replaces the previous filter, so the endpoint
	// always shows the current repetition's filter.
	observed = map[string]func() stats.Snapshot{}
)

// Observe registers f under the given exposition label if it supports stats
// introspection; otherwise it is a no-op. Safe for concurrent use.
func Observe(name string, f Filter) {
	sp, ok := f.(statsProvider)
	if !ok {
		return
	}
	snap := func() stats.Snapshot {
		return stats.BuildSnapshot(
			f.Count(), f.Capacity(), f.SizeBytes(), sp.Geometry().FPR,
			sp.BlockOccupancies(), sp.SlotsPerBlock(), sp.Stats())
	}
	obsMu.Lock()
	observed[name] = snap
	obsMu.Unlock()
}

// ObserveSnapshot registers a live snapshot closure directly, for sources
// that don't fit the statsProvider shape (the elastic cascade registers its
// aggregate snapshot this way — per-block occupancy lives in the levels).
func ObserveSnapshot(name string, snap func() stats.Snapshot) {
	obsMu.Lock()
	observed[name] = snap
	obsMu.Unlock()
}

// WriteObservedMetrics renders a fresh snapshot of every observed filter in
// Prometheus text format (stats.ContentType). Snapshots of concurrent
// filters are safe alongside live traffic. Snapshots of sequential filters
// are unsynchronized reads: acceptable for a debugging endpoint (torn
// occupancy values are clamped by BuildOccupancy, counters are monotone
// word reads), but not a memory-model-clean path — a race-detector build
// will flag a scrape overlapping a sequential benchmark loop.
func WriteObservedMetrics(w io.Writer) error {
	obsMu.Lock()
	names := make([]string, 0, len(observed))
	for name := range observed {
		names = append(names, name)
	}
	sort.Strings(names)
	snaps := make([]stats.NamedSnapshot, 0, len(names))
	for _, name := range names {
		snaps = append(snaps, stats.NamedSnapshot{Name: name, Snap: observed[name]()})
	}
	obsMu.Unlock()
	return stats.WriteMetrics(w, snaps)
}
