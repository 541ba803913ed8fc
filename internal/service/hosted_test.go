package service

import (
	"errors"
	"testing"
	"time"

	"vqf"
)

// noDeadline is the zero deadline: hosted calls made with it never time
// out.
var noDeadline time.Time

// TestHostedKinds drives insert → contains → remove → contains through
// hosted on every kind, and checks that the value ops are refused on
// every kind but the map.
func TestHostedKinds(t *testing.T) {
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i) * 7919
	}
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			spec := Spec{Name: "k", Kind: kind, Capacity: 1 << 12, Seed: 7}
			if err := spec.normalize(); err != nil {
				t.Fatal(err)
			}
			h, err := newHosted(spec)
			if err != nil {
				t.Fatal(err)
			}
			hs := h.HashUint64s(keys, nil)
			if n, err := h.Insert(noDeadline, hs); err != nil || n != len(hs) {
				t.Fatalf("insert: %d of %d, %v", n, len(hs), err)
			}
			found, err := h.Contains(noDeadline, hs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, ok := range found {
				if !ok {
					t.Fatalf("key %d missing after insert", i)
				}
			}
			if n, err := h.Remove(noDeadline, hs); err != nil || n != len(hs) {
				t.Fatalf("remove: %d of %d, %v", n, len(hs), err)
			}
			if c := h.filter.Count(); c != 0 {
				t.Fatalf("count %d after removing every key", c)
			}
			if found, err = h.Contains(noDeadline, hs, found); err != nil {
				t.Fatal(err)
			}
			for i, ok := range found {
				if ok {
					t.Fatalf("key %d present in an empty filter", i)
				}
			}
			if _, hasRing := h.filter.(vqf.EventSource); hasRing != (kind != KindMap) {
				t.Fatalf("event ring exposed: %v", hasRing)
			}

			vals := make([]byte, len(hs))
			for i := range vals {
				vals[i] = byte(i)
			}
			n, err := h.Put(noDeadline, hs, vals, false)
			got, present, gerr := h.Get(noDeadline, hs, nil, nil)
			if kind != KindMap {
				if !errors.Is(err, ErrWrongKind) || !errors.Is(gerr, ErrWrongKind) {
					t.Fatalf("put/get on %s: %v, %v; want ErrWrongKind", kind, err, gerr)
				}
				return
			}
			if err != nil || gerr != nil || n != len(hs) {
				t.Fatalf("put %d of %d: %v, get: %v", n, len(hs), err, gerr)
			}
			for i := range hs {
				if !present[i] || got[i] != vals[i] {
					t.Fatalf("key %d: got %d (present %v), want %d", i, got[i], present[i], vals[i])
				}
			}
		})
	}
}
