package vqf

import (
	"bytes"
	"expvar"
	"net/http"
	"sync"
	"sync/atomic"

	"vqf/internal/stats"
)

// Observability surface. Filters keep cheap always-on operation counters
// (Filter.Stats) and can produce full structural snapshots on demand
// (Filter.Snapshot). This file exposes those two primitives in the shapes
// monitoring stacks expect — a Prometheus text-format HTTP handler and
// expvar publishing — using only the standard library.

// OpStats is a point-in-time reading of a filter's operation counters; all
// fields are cumulative totals since filter creation. See Filter.Stats for
// the consistency contract.
type OpStats = stats.OpCounts

// Occupancy describes the distribution of stored fingerprints over
// mini-filter blocks: a histogram (index = occupancy in slots, value =
// number of blocks), its summary statistics, and the count of full blocks.
type Occupancy = stats.Occupancy

// Snapshot is a full structural snapshot of one filter; see Filter.Snapshot.
type Snapshot = stats.Snapshot

// Source is anything that can produce a metrics snapshot: *Filter, *Map
// and *Elastic all implement it, as can application wrappers.
type Source interface {
	Snapshot() Snapshot
}

// cascadeSource is the additional surface multi-level sources (*Elastic)
// expose; MetricsHandler uses it to export per-level series.
type cascadeSource interface {
	CascadeSnapshot() CascadeSnapshot
}

// MetricsContentType is the Content-Type of MetricsHandler responses
// (Prometheus text exposition format 0.0.4).
const MetricsContentType = stats.ContentType

// MetricsHandler returns an http.Handler that serves the given filters'
// snapshots in Prometheus text format, one sample per filter distinguished
// by a filter="name" label. Mount it wherever the scraper looks:
//
//	mux.Handle("/metrics", vqf.MetricsHandler(map[string]vqf.Source{
//		"cache": filter,
//	}))
//
// Each request takes fresh snapshots; on concurrent filters this is safe
// alongside live traffic (see Filter.Snapshot). The handler holds only the
// sources map, so filters added to the map before the handler is created are
// the ones exported for its lifetime.
//
// An Elastic source exports its aggregate under the given name plus one
// series per cascade level under "name.level<i>" — the level set follows
// the filter's growth from scrape to scrape.
//
// Sharded filters (NewSharded) additionally export the whole metric set
// once per shard with a shard="<i>" label, plus a vqf_shard_imbalance
// gauge (max/mean of per-shard item counts, the heat skew indicator). Sources with latency sampling enabled export their
// per-operation histograms as vqf_op_latency_seconds{filter,op} with
// sparse cumulative buckets in seconds.
func MetricsHandler(sources map[string]Source) http.Handler {
	names := sortedNames(sources)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snaps, gauges, compact, lat := collectMetrics(names, sources)
		var buf bytes.Buffer
		err := stats.WriteMetrics(&buf, snaps)
		if err == nil {
			err = stats.WriteGauge(&buf, "vqf_shard_imbalance",
				"Max/mean of per-shard item counts (1 = balanced).", gauges)
		}
		if err == nil {
			err = stats.WriteCounter(&buf, "vqf_compactions_total",
				"Completed cascade compaction passes that merged levels.", compact.passes)
		}
		if err == nil {
			err = stats.WriteCounter(&buf, "vqf_compaction_levels_merged_total",
				"Source levels rebuilt away by cascade compactions.", compact.levels)
		}
		if err == nil {
			err = stats.WriteCounter(&buf, "vqf_freezes_total",
				"Completed freeze passes that built immutable fuse levels.", compact.freezes)
		}
		if err == nil {
			err = stats.WriteCounter(&buf, "vqf_freeze_levels_frozen_total",
				"Source VQF levels retired into the frozen tier.", compact.frozen)
		}
		if err == nil {
			err = stats.WriteCounter(&buf, "vqf_thaws_total",
				"Fuse levels rebuilt back into live form after tombstone pressure.", compact.thaws)
		}
		if err == nil {
			err = stats.WriteLatency(&buf, lat)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", MetricsContentType)
		w.Write(buf.Bytes())
	})
}

// expvarSlots holds the sources behind the expvar names this package has
// published. expvar offers no Unpublish, so re-publishing a name swaps the
// source inside the already-registered variable instead of calling
// expvar.Publish again (which would panic on the duplicate).
var (
	expvarMu    sync.Mutex
	expvarSlots = map[string]*atomic.Pointer[Source]{}
)

// PublishExpvar publishes f's snapshot under the given expvar name, making
// it visible on the standard /debug/vars endpoint as a JSON object. Each
// read of the variable takes a fresh snapshot. Publishing a name this
// package already published replaces that variable's source (a rebuilt
// filter after a config reload, for example) rather than panicking; names
// registered directly with expvar.Publish by other code still collide.
func PublishExpvar(name string, f Source) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if slot, ok := expvarSlots[name]; ok {
		slot.Store(&f)
		return
	}
	slot := &atomic.Pointer[Source]{}
	slot.Store(&f)
	expvarSlots[name] = slot
	expvar.Publish(name, expvar.Func(func() any {
		return (*slot.Load()).Snapshot()
	}))
}
