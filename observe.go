package vqf

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"vqf/internal/stats"
	"vqf/internal/telemetry"
)

// Latency and event observability. Filters sample a configurable 1-in-N
// slice of their single-key operations into log-bucketed latency
// histograms (batch calls are always timed — the clock read amortizes over
// the batch), and record rare structural events — elastic growth, seqlock
// fallbacks, sharded batch-pool stalls — into a bounded overwrite ring.
// Both are cheap enough to leave on in production: the sampling gate costs
// a couple of arithmetic ops per operation and the ring is written only on
// events that are already off the fast path.

// DefaultLatencySamplingRate is the 1-in-N sampling rate filters use when
// WithLatencySampling is not given.
const DefaultLatencySamplingRate = telemetry.DefaultSamplingRate

// WithLatencySampling sets the filter's latency sampling rate: one in rate
// single-key operations is timed (rate is rounded up to a power of two;
// 1 times every operation). A rate <= 0 disables latency recording
// entirely, reducing the per-operation cost to one nil check.
func WithLatencySampling(rate int) Option {
	return func(c *config) {
		c.latencyRate = rate
		c.latencySet = true
	}
}

// LatencySummary is a quantile digest of one operation's sampled latency
// histogram: observation count, mean, and p50/p90/p99/p999 in nanoseconds.
// Quantiles are bucket upper bounds of a histogram with 8 buckets per
// octave, so they carry at most ~12% relative bucketing error.
type LatencySummary = telemetry.Summary

// LatencySnapshot is a point-in-time reading of every per-operation
// latency histogram of one filter. Operations that never ran (or were
// never sampled) have zero-count summaries. Batch summaries describe
// per-key amortized latencies.
type LatencySnapshot struct {
	SamplingRate int            `json:"sampling_rate"`
	Insert       LatencySummary `json:"insert"`
	Lookup       LatencySummary `json:"lookup"`
	Remove       LatencySummary `json:"remove"`
	InsertBatch  LatencySummary `json:"insert_batch"`
	LookupBatch  LatencySummary `json:"lookup_batch"`
	RemoveBatch  LatencySummary `json:"remove_batch"`
}

func latencySnapshot(rec *telemetry.Recorder) LatencySnapshot {
	return LatencySnapshot{
		SamplingRate: rec.Rate(),
		Insert:       rec.Snapshot(telemetry.OpInsert).Summary(),
		Lookup:       rec.Snapshot(telemetry.OpLookup).Summary(),
		Remove:       rec.Snapshot(telemetry.OpRemove).Summary(),
		InsertBatch:  rec.Snapshot(telemetry.OpInsertBatch).Summary(),
		LookupBatch:  rec.Snapshot(telemetry.OpLookupBatch).Summary(),
		RemoveBatch:  rec.Snapshot(telemetry.OpRemoveBatch).Summary(),
	}
}

// latencyOps pairs each recorder op with its exposition label.
var latencyOps = []struct {
	op    telemetry.Op
	label string
}{
	{telemetry.OpInsert, "insert"},
	{telemetry.OpLookup, "lookup"},
	{telemetry.OpRemove, "remove"},
	{telemetry.OpInsertBatch, "insert_batch"},
	{telemetry.OpLookupBatch, "lookup_batch"},
	{telemetry.OpRemoveBatch, "remove_batch"},
}

// latencySeries renders a recorder's non-empty histograms as exposition
// series for one named filter.
func latencySeries(name string, rec *telemetry.Recorder) []stats.LatencySeries {
	if rec == nil {
		return nil
	}
	var out []stats.LatencySeries
	for _, lo := range latencyOps {
		if snap := rec.Snapshot(lo.op); snap.Count > 0 {
			out = append(out, stats.LatencySeries{Filter: name, Op: lo.label, Hist: snap})
		}
	}
	return out
}

// latencySource is the internal surface MetricsHandler uses to pull full
// latency histograms (not just summaries) out of a Source.
type latencySource interface {
	latencyRecorder() *telemetry.Recorder
}

// Event is one rare structural event drained from a filter's event ring:
// elastic level growth (A=level, B=allocated slots, C=build ns), seqlock
// retry-exhaustion fallback (A=block, B=retries), sharded batch-pool claim
// stall (A=idle workers, B=pool size, C=batch keys), or an assembly-kernel
// dispatch decision on the global ring (A=asm enabled, B=fused probe,
// C=asm available).
type Event = telemetry.Event

// GlobalEvents drains the process-wide event ring, which carries events
// not tied to one filter instance — currently assembly-kernel dispatch
// decisions ("asm_dispatch").
func GlobalEvents() []Event { return telemetry.Global().Events() }

// EventSource is anything exposing an event ring: *Filter and *Elastic.
type EventSource interface {
	Events() []Event
}

// EventsHandler returns an http.Handler serving the sources' event rings
// as one JSON object mapping each name to its events (oldest first), plus
// a "global" entry with the process-wide ring. Mount it for incident
// debugging:
//
//	mux.Handle("/debug/vqf/events", vqf.EventsHandler(map[string]vqf.EventSource{
//		"cache": filter,
//	}))
func EventsHandler(sources map[string]EventSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := make(map[string][]Event, len(sources)+1)
		for name, src := range sources {
			out[name] = src.Events()
		}
		out["global"] = GlobalEvents()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
}

// ShardedSnapshot is the per-shard heat view of a sharded filter: the
// merged aggregate, one snapshot per shard, and the max/mean imbalance
// metric (1.0 = perfectly balanced; sustained higher values mean the
// workload's top hash bits are skewed).
type ShardedSnapshot = stats.ShardedSnapshot

// shardedSource is the internal surface MetricsHandler uses to detect
// sharded filters and pull their per-shard series.
type shardedSource interface {
	ShardedSnapshot() (ShardedSnapshot, bool)
}

// ShardedSnapshot returns the filter's per-shard snapshots and imbalance.
// ok is false for non-sharded filters (from New or NewConcurrent), whose
// heat view would be a single shard.
func (f *Filter) ShardedSnapshot() (ShardedSnapshot, bool) {
	s, ok := f.impl.(interface {
		ShardSnapshots(fprFullLoad float64) []stats.Snapshot
	})
	if !ok {
		return ShardedSnapshot{}, false
	}
	return stats.BuildShardedSnapshot(f.Snapshot(), s.ShardSnapshots(f.FalsePositiveRate())), true
}

// ShardedSnapshot returns the elastic filter's per-shard cascade
// aggregates and imbalance; ok is false unless built by NewShardedElastic.
func (e *Elastic) ShardedSnapshot() (ShardedSnapshot, bool) {
	s, ok := e.impl.(interface{ ShardSnapshots() []stats.Snapshot })
	if !ok {
		return ShardedSnapshot{}, false
	}
	return stats.BuildShardedSnapshot(e.Snapshot(), s.ShardSnapshots()), true
}

// appendShardSeries renders a sharded source's per-shard series: the same
// metric set as the aggregate with an extra shard="i" label, plus one
// vqf_shard_imbalance gauge sample.
func appendShardSeries(snaps []stats.NamedSnapshot, gauges []stats.NamedGauge, name string, ss ShardedSnapshot) ([]stats.NamedSnapshot, []stats.NamedGauge) {
	for i := range ss.Shards {
		snaps = append(snaps, stats.NamedSnapshot{
			Name: name, Shard: strconv.Itoa(i), Snap: ss.Shards[i]})
	}
	gauges = append(gauges, stats.NamedGauge{Name: name, Value: ss.Imbalance})
	return snaps, gauges
}

// compactCounters carries the compaction- and freeze-lifecycle counter
// samples for the cascades in one metrics collection pass.
type compactCounters struct {
	passes  []stats.NamedCounter
	levels  []stats.NamedCounter
	freezes []stats.NamedCounter
	frozen  []stats.NamedCounter
	thaws   []stats.NamedCounter
}

// collectMetrics assembles the exposition series for a sorted name list:
// per-filter snapshots (with per-level series for cascades and per-shard
// series for sharded filters), imbalance gauges, compaction counters, and
// latency histograms.
func collectMetrics(names []string, sources map[string]Source) (snaps []stats.NamedSnapshot, gauges []stats.NamedGauge, compact compactCounters, lat []stats.LatencySeries) {
	for _, name := range names {
		src := sources[name]
		switch {
		case isCascade(src):
			cascade := src.(cascadeSource).CascadeSnapshot()
			snaps = append(snaps, stats.NamedSnapshot{Name: name, Snap: cascade.Aggregate})
			for i, lvl := range cascade.Levels {
				snaps = append(snaps, stats.NamedSnapshot{
					Name: name + ".level" + strconv.Itoa(i), Snap: lvl})
			}
			compact.passes = append(compact.passes,
				stats.NamedCounter{Name: name, Value: cascade.Compactions})
			compact.levels = append(compact.levels,
				stats.NamedCounter{Name: name, Value: cascade.CompactionLevelsMerged})
			compact.freezes = append(compact.freezes,
				stats.NamedCounter{Name: name, Value: cascade.Freezes})
			compact.frozen = append(compact.frozen,
				stats.NamedCounter{Name: name, Value: cascade.FreezeLevelsFrozen})
			compact.thaws = append(compact.thaws,
				stats.NamedCounter{Name: name, Value: cascade.Thaws})
		default:
			snaps = append(snaps, stats.NamedSnapshot{Name: name, Snap: src.Snapshot()})
		}
		if sh, ok := src.(shardedSource); ok {
			if ss, sharded := sh.ShardedSnapshot(); sharded {
				snaps, gauges = appendShardSeries(snaps, gauges, name, ss)
			}
		}
		if ls, ok := src.(latencySource); ok {
			lat = append(lat, latencySeries(name, ls.latencyRecorder())...)
		}
	}
	return snaps, gauges, compact, lat
}

func isCascade(src Source) bool {
	_, ok := src.(cascadeSource)
	return ok
}

// sortedNames returns the sources' names in stable exposition order.
func sortedNames(sources map[string]Source) []string {
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
