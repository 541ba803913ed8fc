package telemetry

import (
	"runtime"
	"sync/atomic"
	"time"
)

// EventKind classifies a structured rare event. Events carry three
// kind-specific numeric arguments (A, B, C) instead of strings: every slot
// field is a machine word written atomically, which keeps the ring
// race-clean and allocation-free without locking writers.
type EventKind uint64

const (
	EvNone EventKind = iota
	// EvElasticGrow: a sequential elastic cascade appended a level.
	// A = new level index, B = allocated slots, C = build time ns.
	EvElasticGrow
	// EvElasticSwap: a concurrent elastic cascade published a new level
	// list via atomic pointer swap. A/B/C as EvElasticGrow.
	EvElasticSwap
	// EvSeqlockFallback: an optimistic block read exhausted its retry
	// budget and fell back to the block lock. A = primary block index,
	// B = retries.
	EvSeqlockFallback
	// EvEvictionRollback: a cuckoo/morton eviction walk failed and rolled
	// back. A = walk length.
	EvEvictionRollback
	// EvAsmDispatch: the assembly-kernel selection changed (or was set at
	// init). A = asm kernels enabled, B = fused fast probes enabled,
	// C = assembly present in this build (1/0 each).
	EvAsmDispatch
	// EvShardClaimStall: a sharded batch finished with workers that
	// claimed no work — the shard partition was too skewed to feed the
	// pool. A = idle workers, B = pool size, C = batch keys.
	EvShardClaimStall
	// EvCompactStart: a cascade compaction began. A = levels before,
	// B = live items in the source levels it plans to merge.
	EvCompactStart
	// EvCompactFinish: a cascade compaction finished. A = levels merged
	// away, B = levels after, C = duration ns.
	EvCompactFinish
	// EvFreezeStart: a cascade freeze (frozen VQF runs rebuilding into
	// immutable fuse levels) began. A = levels before, B = live items in
	// the qualifying runs.
	EvFreezeStart
	// EvFreezeFinish: a cascade freeze finished. A = source levels frozen
	// away, B = levels after, C = duration ns.
	EvFreezeFinish
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"none",
	"elastic-grow",
	"elastic-swap",
	"seqlock-fallback",
	"eviction-rollback",
	"asm-dispatch",
	"shard-claim-stall",
	"compact-start",
	"compact-finish",
	"freeze-start",
	"freeze-finish",
}

// String returns the event kind's stable identifier (used in JSON).
func (k EventKind) String() string {
	if k < numEventKinds {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one drained ring entry.
type Event struct {
	// Seq is the event's global sequence number in its ring (1-based,
	// monotone; gaps mean overwritten entries).
	Seq uint64 `json:"seq"`
	// TimeUnixNano is the recording wall-clock time.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Kind is the EventKind identifier string.
	Kind string `json:"kind"`
	// A, B, C are the kind-specific arguments (see the EventKind docs).
	A uint64 `json:"a"`
	B uint64 `json:"b"`
	C uint64 `json:"c"`
}

// ringSlot holds one event with every field an atomic word. seq is both
// the publication flag and the slot's owner: the published event's
// 1-based sequence number, or slotBusy|seq while the writer holding seq
// fills the slot. A writer takes the slot by CAS, so one slot never has
// two writers at once. A reader validates seq before and after loading
// the payload and discards the slot on mismatch.
type ringSlot struct {
	seq  atomic.Uint64
	t    atomic.Int64
	kind atomic.Uint64
	a    atomic.Uint64
	b    atomic.Uint64
	c    atomic.Uint64
}

// Ring is a bounded lock-free overwrite ring of structured events.
// Recording claims a sequence number with one atomic add, takes its slot
// by CAS and fills it with atomic stores — no locks, no allocation — so it
// is safe on any path, though it is meant for rare events (growths,
// fallbacks, stalls), not per-op traffic. When the ring wraps, the oldest
// events are overwritten.
//
// Events is best-effort on two counts: a drain concurrent with heavy
// recording can miss slots being rewritten (they fail seq validation and
// are skipped), and a writer that stalls mid-fill leaves its slot
// unpublished until it finishes. A writer a whole lap behind drops its
// event rather than overwrite a newer one.
type Ring struct {
	slots []ringSlot
	mask  uint64
	widx  atomic.Uint64
}

// DefaultRingSize is the event capacity rings are created with unless a
// caller asks otherwise.
const DefaultRingSize = 256

// NewRing returns a ring holding the most recent n events (rounded up to
// a power of two, minimum 16).
func NewRing(n int) *Ring {
	size := 16
	for size < n && size < 1<<20 {
		size <<= 1
	}
	return &Ring{slots: make([]ringSlot, size), mask: uint64(size) - 1}
}

// slotBusy marks a slot's seq while its writer fills the payload.
const slotBusy = 1 << 63

// Record appends an event. Safe for any number of concurrent recorders;
// never allocates. Writers a lap apart map to the same slot: the newer
// one waits (yielding) while an older one is mid-fill, and the older one
// drops its event once a newer one holds or has published the slot, so
// every slot ends holding the newest event that maps to it.
func (r *Ring) Record(kind EventKind, a, b, c uint64) {
	if r == nil {
		return
	}
	seq := r.widx.Add(1)
	s := &r.slots[(seq-1)&r.mask]
	for {
		cur := s.seq.Load()
		if cur&^slotBusy > seq {
			return // a newer event owns the slot; ours is already stale
		}
		if cur&slotBusy != 0 {
			runtime.Gosched() // an older writer is mid-fill
			continue
		}
		if s.seq.CompareAndSwap(cur, seq|slotBusy) {
			break
		}
	}
	s.t.Store(time.Now().UnixNano())
	s.kind.Store(uint64(kind))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.seq.Store(seq)
}

// Events returns the ring's current contents, oldest first, without
// consuming them. Slots being concurrently rewritten are skipped.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	w := r.widx.Load()
	n := uint64(len(r.slots))
	start := uint64(1)
	if w > n {
		start = w - n + 1
	}
	out := make([]Event, 0, w-start+1)
	for seq := start; seq <= w; seq++ {
		s := &r.slots[(seq-1)&r.mask]
		if s.seq.Load() != seq {
			continue // unpublished or already overwritten
		}
		ev := Event{
			Seq:          seq,
			TimeUnixNano: s.t.Load(),
			Kind:         EventKind(s.kind.Load()).String(),
			A:            s.a.Load(),
			B:            s.b.Load(),
			C:            s.c.Load(),
		}
		if s.seq.Load() != seq {
			continue // rewritten mid-read; payload may be torn
		}
		out = append(out, ev)
	}
	return out
}

// global is the process-wide ring for events not tied to one filter
// (kernel dispatch decisions at init, for example).
var global = NewRing(1024)

// Global returns the process-wide event ring.
func Global() *Ring { return global }
