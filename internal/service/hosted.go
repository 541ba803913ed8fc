package service

import (
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"sync"
	"time"

	"vqf"
	"vqf/internal/hashing"
)

// Kind names a hostable filter variant. The daemon hosts every public
// filter shape that can round-trip through the serialization envelopes,
// which is what makes snapshot/warm-restart total over the registry.
type Kind string

const (
	// KindPlain is a single-threaded vqf.Filter (vqf.New); the service
	// serializes access to it with the hosted lock.
	KindPlain Kind = "plain"
	// KindConcurrent is a thread-safe vqf.Filter (vqf.NewConcurrent);
	// data-plane requests run on it concurrently.
	KindConcurrent Kind = "concurrent"
	// KindSharded is a sharded concurrent vqf.Filter (vqf.NewSharded):
	// batch frames fan out over shard-disjoint workers.
	KindSharded Kind = "sharded"
	// KindElastic is an online-growing vqf.Elastic (vqf.NewElastic). The
	// sequential cascade is hosted — it is the variant that serializes —
	// with access serialized by the hosted lock.
	KindElastic Kind = "elastic"
	// KindMap is a value-associating vqf.Map; opPut/opGet carry the value
	// byte per key.
	KindMap Kind = "map"
)

// Kinds lists every hostable kind.
func Kinds() []Kind {
	return []Kind{KindPlain, KindConcurrent, KindSharded, KindElastic, KindMap}
}

// Spec declares one named filter: its kind and construction parameters.
// It is the create-request body of the admin API and the per-filter
// record of the snapshot manifest (the hash seed must persist so raw keys
// hash identically after a warm restart).
type Spec struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Capacity is the provisioned item count (for KindElastic, the initial
	// capacity the first level is provisioned for). 0 means 1<<20.
	Capacity uint64 `json:"capacity,omitempty"`
	// FPR is the target false-positive rate; 0 means the package default
	// (the 8-bit geometry's ≈0.0047).
	FPR float64 `json:"fpr,omitempty"`
	// Shards is the shard count for KindSharded (0 = GOMAXPROCS).
	Shards int `json:"shards,omitempty"`
	// Seed is the hash seed for raw keys; it travels in the manifest.
	Seed uint64 `json:"seed,omitempty"`
}

// nameRe bounds filter names so they are safe as snapshot file names and
// URL path segments.
var nameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,127}$`)

// minSupportedFPR mirrors the package's 2^-17 floor so Spec validation
// rejects what the constructors would panic on.
const minSupportedFPR = 1.0 / (1 << 17)

// normalize validates the spec and fills defaults in place.
func (s *Spec) normalize() error {
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("service: invalid filter name %q (want %s)", s.Name, nameRe)
	}
	switch s.Kind {
	case KindPlain, KindConcurrent, KindSharded, KindElastic, KindMap:
	default:
		return fmt.Errorf("service: unknown filter kind %q", s.Kind)
	}
	if s.Capacity == 0 {
		s.Capacity = 1 << 20
	}
	if s.Capacity > 1<<34 {
		return fmt.Errorf("service: capacity %d exceeds the 2^34 hosting limit", s.Capacity)
	}
	if s.FPR != 0 && (s.FPR < minSupportedFPR || s.FPR >= 1) {
		return fmt.Errorf("service: false-positive rate %g outside [2^-17, 1)", s.FPR)
	}
	if s.Kind == KindSharded && s.Shards == 0 {
		s.Shards = runtime.GOMAXPROCS(0)
	}
	if s.Kind != KindSharded {
		s.Shards = 0
	}
	return nil
}

// options renders the spec's construction options.
func (s *Spec) options() []vqf.Option {
	opts := []vqf.Option{vqf.WithSeed(s.Seed)}
	if s.FPR != 0 {
		opts = append(opts, vqf.WithFalsePositiveRate(s.FPR))
	}
	return opts
}

// Service-level operation errors; the HTTP and binary front ends map them
// to their own status vocabularies.
var (
	ErrNotFound   = errors.New("service: no such filter")
	ErrExists     = errors.New("service: filter already exists")
	ErrWrongKind  = errors.New("service: operation requires a map filter")
	ErrNotElastic = errors.New("service: operation requires an elastic filter")
	ErrDraining   = errors.New("service: server draining")
	ErrTimeout    = errors.New("service: op timeout")
)

// hostedFilter is the surface every hosted kind presents to the data
// plane, the registry and snapshots: batch membership ops, structural
// numbers, a metrics snapshot and its envelope stream. *vqf.Filter and
// *vqf.Elastic satisfy it as they are, *vqf.Map through kvFilter.
type hostedFilter interface {
	vqf.Source
	AddHashBatch(hs []uint64) int
	ContainsHashBatch(hs []uint64, dst []bool) []bool
	RemoveHashBatch(hs []uint64) int
	Count() uint64
	Capacity() uint64
	SizeBytes() uint64
	WriteTo(w io.Writer) (int64, error)
}

// kvFilter gives a vqf.Map the membership ops: insert stores each key with
// value 0, contains reports presence, remove deletes.
type kvFilter struct{ *vqf.Map }

func (m kvFilter) AddHashBatch(hs []uint64) int {
	n := 0
	for _, kh := range hs {
		if m.PutHash(kh, 0) == nil {
			n++
		}
	}
	return n
}

func (m kvFilter) ContainsHashBatch(hs []uint64, dst []bool) []bool {
	if cap(dst) < len(hs) {
		dst = make([]bool, len(hs))
	}
	dst = dst[:len(hs)]
	for i, kh := range hs {
		_, dst[i] = m.GetHash(kh)
	}
	return dst
}

func (m kvFilter) RemoveHashBatch(hs []uint64) int {
	n := 0
	for _, kh := range hs {
		if m.DeleteHash(kh) {
			n++
		}
	}
	return n
}

// hosted is one named filter plus its service-level lock.
//
// Locking: snapshotting needs quiescence (WriteTo rejects in-flight
// writers) and the sequential kinds need mutual exclusion the filter
// itself does not provide, so every hosted filter carries a RWMutex, and
// every access to the filter goes through acquire and release. The
// data-plane side is the read side on internally thread-safe kinds
// (concurrent, sharded) — their ops exclude only snapshots, not each
// other — and the write side on sequential kinds (plain, elastic, map).
// Snapshots and structural ops take the write side on every kind.
type hosted struct {
	spec   Spec
	mu     sync.RWMutex
	filter hostedFilter
}

// newHosted constructs the filter a spec describes. The spec must be
// normalized.
func newHosted(spec Spec) (*hosted, error) {
	h := &hosted{spec: spec}
	opts := spec.options()
	switch spec.Kind {
	case KindPlain:
		h.filter = vqf.New(spec.Capacity, opts...)
	case KindConcurrent:
		h.filter = vqf.NewConcurrent(spec.Capacity, opts...)
	case KindSharded:
		h.filter = vqf.NewSharded(spec.Capacity, spec.Shards, opts...)
	case KindElastic:
		h.filter = vqf.NewElastic(append(opts, vqf.WithInitialCapacity(spec.Capacity))...)
	case KindMap:
		h.filter = kvFilter{vqf.NewMap(spec.Capacity, opts...)}
	default:
		return nil, fmt.Errorf("service: unknown filter kind %q", spec.Kind)
	}
	return h, nil
}

// acquire takes the hosted lock, the write side when exclusive is set and
// the data-plane side otherwise. Once it is held, a nonzero deadline with
// now ≥ deadline releases it again and returns ErrTimeout, so a request
// queued too long never touches the filter.
func (h *hosted) acquire(deadline time.Time, exclusive bool) error {
	if h.writeSide(exclusive) {
		h.mu.Lock()
	} else {
		h.mu.RLock()
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		h.release(exclusive)
		return ErrTimeout
	}
	return nil
}

// writeSide reports whether an access takes the write side of the lock.
func (h *hosted) writeSide(exclusive bool) bool {
	return exclusive || (h.spec.Kind != KindConcurrent && h.spec.Kind != KindSharded)
}

// release drops the side of the hosted lock acquire took for exclusive.
func (h *hosted) release(exclusive bool) {
	if h.writeSide(exclusive) {
		h.mu.Unlock()
	} else {
		h.mu.RUnlock()
	}
}

// HashUint64s hashes raw 64-bit keys with the filter's seed into dst
// (reused when large enough). Safe without the lock: the seed is
// immutable.
func (h *hosted) HashUint64s(keys []uint64, dst []uint64) []uint64 {
	if cap(dst) < len(keys) {
		dst = make([]uint64, len(keys))
	}
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = hashing.HashUint64(k, h.spec.Seed)
	}
	return dst
}

// HashStrings hashes string keys with the filter's seed into dst.
func (h *hosted) HashStrings(keys []string, dst []uint64) []uint64 {
	if cap(dst) < len(keys) {
		dst = make([]uint64, len(keys))
	}
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = hashing.HashString(k, h.spec.Seed)
	}
	return dst
}

// Insert inserts pre-hashed keys and returns how many were stored (the
// rest hit full blocks). On a map filter, keys are stored with value 0.
func (h *hosted) Insert(deadline time.Time, hs []uint64) (int, error) {
	if err := h.acquire(deadline, false); err != nil {
		return 0, err
	}
	defer h.release(false)
	return h.filter.AddHashBatch(hs), nil
}

// Contains reports membership for pre-hashed keys into dst (reused when
// large enough).
func (h *hosted) Contains(deadline time.Time, hs []uint64, dst []bool) ([]bool, error) {
	if err := h.acquire(deadline, false); err != nil {
		return dst, err
	}
	defer h.release(false)
	return h.filter.ContainsHashBatch(hs, dst), nil
}

// Remove removes one instance of each pre-hashed key, returning how many
// were found.
func (h *hosted) Remove(deadline time.Time, hs []uint64) (int, error) {
	if err := h.acquire(deadline, false); err != nil {
		return 0, err
	}
	defer h.release(false)
	return h.filter.RemoveHashBatch(hs), nil
}

// Put stores (or with update, rewrites) key→value pairs on a map filter,
// returning how many succeeded.
func (h *hosted) Put(deadline time.Time, hs []uint64, vals []byte, update bool) (int, error) {
	kv, ok := h.filter.(kvFilter)
	if !ok {
		return 0, ErrWrongKind
	}
	if err := h.acquire(deadline, false); err != nil {
		return 0, err
	}
	defer h.release(false)
	n := 0
	for i, kh := range hs {
		if update {
			if kv.UpdateHash(kh, vals[i]) {
				n++
			}
		} else if kv.PutHash(kh, vals[i]) == nil {
			n++
		}
	}
	return n, nil
}

// Get looks up values on a map filter: found[i] reports presence and
// vals[i] the stored byte (0 when absent). Both slices are reused when
// large enough.
func (h *hosted) Get(deadline time.Time, hs []uint64, vals []byte, found []bool) ([]byte, []bool, error) {
	kv, ok := h.filter.(kvFilter)
	if !ok {
		return vals, found, ErrWrongKind
	}
	if err := h.acquire(deadline, false); err != nil {
		return vals, found, err
	}
	defer h.release(false)
	if cap(vals) < len(hs) {
		vals = make([]byte, len(hs))
	}
	vals = vals[:len(hs)]
	if cap(found) < len(hs) {
		found = make([]bool, len(hs))
	}
	found = found[:len(hs)]
	for i, kh := range hs {
		vals[i], found[i] = kv.GetHash(kh)
	}
	return vals, found, nil
}

// Compact runs a cascade compaction on an elastic filter, merging runs of
// sparse old levels; ErrNotElastic for every other kind. It takes the
// write side of the hosted lock — the hosted cascade is the sequential
// variant, and holding the write side also means a snapshot can never
// observe a half-spliced level list.
func (h *hosted) Compact(deadline time.Time) (vqf.CompactionResult, error) {
	e, ok := h.filter.(*vqf.Elastic)
	if !ok {
		return vqf.CompactionResult{}, ErrNotElastic
	}
	if err := h.acquire(deadline, true); err != nil {
		return vqf.CompactionResult{}, err
	}
	defer h.release(true)
	return e.CompactNow(), nil
}

// Freeze rebuilds an elastic filter's qualifying old levels into immutable
// fuse levels; ErrNotElastic for every other kind. Locking matches Compact.
func (h *hosted) Freeze(deadline time.Time) (vqf.FreezeResult, error) {
	e, ok := h.filter.(*vqf.Elastic)
	if !ok {
		return vqf.FreezeResult{}, ErrNotElastic
	}
	if err := h.acquire(deadline, true); err != nil {
		return vqf.FreezeResult{}, err
	}
	defer h.release(true)
	return e.FreezeNow(), nil
}

// readHosted deserializes a filter of the spec's kind from r, wrapping it
// as a hosted filter. It is the warm-restart counterpart of WriteTo: each
// kind dispatches to the envelope reader that reconstructs the variant
// the daemon hosts for that kind.
func readHosted(spec Spec, r io.Reader) (*hosted, error) {
	h := &hosted{spec: spec}
	var err error
	switch spec.Kind {
	case KindPlain:
		h.filter, err = vqf.Read(r)
	case KindConcurrent:
		h.filter, err = vqf.ReadConcurrent(r)
	case KindSharded:
		h.filter, err = vqf.Read(r) // sharded streams always load sharded
	case KindElastic:
		h.filter, err = vqf.ReadElastic(r)
	case KindMap:
		var m *vqf.Map
		m, err = vqf.NewMapFromReader(r)
		h.filter = kvFilter{m}
	default:
		return nil, fmt.Errorf("service: unknown filter kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}
