package service

import (
	"sort"
	"sync"
	"time"

	"vqf"
)

// Registry is the set of named hosted filters a daemon serves. All
// methods are safe for concurrent use; the registry lock guards only the
// name→filter map (held for map lookups, never across filter
// operations), so data-plane traffic on different filters shares no
// lock at all.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*hosted
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[string]*hosted{}}
}

// Info is the list/inspect view of one hosted filter: its spec plus
// current structural numbers.
type Info struct {
	Spec
	Count      uint64  `json:"count"`
	SlotCap    uint64  `json:"slot_capacity"`
	LoadFactor float64 `json:"load_factor"`
	SizeBytes  uint64  `json:"size_bytes"`
}

// info snapshots one hosted filter's Info under its data-plane lock.
func (h *hosted) info() Info {
	_ = h.acquire(time.Time{}, false) // no deadline: cannot fail
	count, capacity, size := h.filter.Count(), h.filter.Capacity(), h.filter.SizeBytes()
	h.release(false)
	lf := 0.0
	if capacity > 0 {
		lf = float64(count) / float64(capacity)
	}
	return Info{Spec: h.spec, Count: count, SlotCap: capacity, LoadFactor: lf, SizeBytes: size}
}

// Create validates spec, constructs its filter, and registers it.
// It returns ErrExists if the name is taken.
func (r *Registry) Create(spec Spec) (Info, error) {
	if err := spec.normalize(); err != nil {
		return Info{}, err
	}
	h, err := newHosted(spec)
	if err != nil {
		return Info{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[spec.Name]; ok {
		return Info{}, ErrExists
	}
	r.m[spec.Name] = h
	return h.info(), nil
}

// Drop removes the named filter, returning ErrNotFound if absent. An
// in-flight operation holding the hosted lock completes normally; the
// filter's memory is reclaimed when the last reference drops.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; !ok {
		return ErrNotFound
	}
	delete(r.m, name)
	return nil
}

// get returns the named hosted filter.
func (r *Registry) get(name string) (*hosted, error) { return r.lookup([]byte(name)) }

// lookup is get for a name in frame bytes; m[string(name)] never allocates.
func (r *Registry) lookup(name []byte) (*hosted, error) {
	r.mu.RLock()
	h, ok := r.m[string(name)]
	r.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return h, nil
}

// Len returns the number of hosted filters.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// List returns every hosted filter's Info, sorted by name.
func (r *Registry) List() []Info {
	hs := r.sorted()
	out := make([]Info, len(hs))
	for i, h := range hs {
		out[i] = h.info()
	}
	return out
}

// Sources returns the current filters as metrics sources, without the
// hosted locks: a sequential kind (plain, elastic, map) must be read
// under its lock, as the daemon's /metrics route does.
func (r *Registry) Sources() map[string]vqf.Source {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]vqf.Source, len(r.m))
	for name, h := range r.m {
		out[name] = h.filter
	}
	return out
}

// EventSources returns the current filters' event rings for
// vqf.EventsHandler (kinds without a ring are omitted; the handler adds
// the process-global ring itself).
func (r *Registry) EventSources() map[string]vqf.EventSource {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]vqf.EventSource, len(r.m))
	for name, h := range r.m {
		if es, ok := h.filter.(vqf.EventSource); ok {
			out[name] = es
		}
	}
	return out
}

// sorted returns the hosted filters by name: the order of List, of
// snapshots (so manifests are deterministic) and of scrape locking.
func (r *Registry) sorted() []*hosted {
	r.mu.RLock()
	hs := make([]*hosted, 0, len(r.m))
	for _, h := range r.m {
		hs = append(hs, h)
	}
	r.mu.RUnlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].spec.Name < hs[j].spec.Name })
	return hs
}

// replace atomically swaps the registry contents for the given set (the
// restore path). In-flight operations on replaced filters complete
// against the old instances.
func (r *Registry) replace(m map[string]*hosted) {
	r.mu.Lock()
	r.m = m
	r.mu.Unlock()
}
