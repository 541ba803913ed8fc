package service

import (
	"errors"
	"strings"
	"testing"

	"vqf/internal/workload"
)

// TestHTTPFreeze exercises the admin freeze op end-to-end: a churned
// elastic cascade retires old levels into fuse levels, keeps its live keys,
// still serves removes against the frozen tier, and a non-elastic filter
// rejects the op.
func TestHTTPFreeze(t *testing.T) {
	srv := startServer(t, Config{})
	admin := NewAdmin("http://" + srv.HTTPAddr())

	if _, err := admin.Create(Spec{Name: "cold", Kind: KindElastic, Capacity: 512, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	h, err := srv.reg.get("cold")
	if err != nil {
		t.Fatal(err)
	}
	live := churnElastic(t, h, 37, 20000)

	res, err := admin.Freeze("cold")
	if err != nil {
		t.Fatal(err)
	}
	if res.LevelsFrozen == 0 || res.FuseLevels == 0 {
		t.Fatalf("freeze retired nothing: %+v", res)
	}
	found, err := h.Contains(noDeadline, live, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("live key %d lost after admin freeze", i)
		}
	}
	// Removes against the frozen tier go to tombstones but must still count.
	cut := len(live) / 8
	if n, err := h.Remove(noDeadline, live[:cut]); err != nil || n != cut {
		t.Fatalf("remove after freeze %d/%d: %v", n, cut, err)
	}

	// A frozen cascade must snapshot and restore intact.
	dir := t.TempDir()
	if _, err := srv.reg.SnapshotTo(dir); err != nil {
		t.Fatal(err)
	}
	loaded, warns := LoadDir(dir)
	if len(warns) != 0 {
		t.Fatalf("frozen snapshot restored with warnings: %v", warns)
	}
	restored, err := loaded.get("cold")
	if err != nil {
		t.Fatal(err)
	}
	found, err = restored.Contains(noDeadline, live[cut:], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("restored frozen cascade lost live key %d", i)
		}
	}

	if _, err := admin.Create(Spec{Name: "flat2", Kind: KindPlain, Capacity: 4096}); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Freeze("flat2"); err == nil || !strings.Contains(err.Error(), "elastic") {
		t.Fatalf("freeze on a plain filter: %v", err)
	}
	if _, err := admin.Freeze("missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("freeze on a missing filter: %v", err)
	}
}

// TestFreezeNotElastic checks the hosted-level error for every non-elastic
// kind.
func TestFreezeNotElastic(t *testing.T) {
	reg := NewRegistry()
	for _, kind := range Kinds() {
		if kind == KindElastic {
			continue
		}
		name := "nf-" + string(kind)
		if _, err := reg.Create(Spec{Name: name, Kind: kind, Capacity: 4096}); err != nil {
			t.Fatal(err)
		}
		h, _ := reg.get(name)
		if _, err := h.Freeze(noDeadline); !errors.Is(err, ErrNotElastic) {
			t.Fatalf("%s: Freeze error %v, want ErrNotElastic", kind, err)
		}
	}
}

// TestFreezeKeepsServing races lookups and removes against an admin freeze
// on a hosted cascade: nothing may be lost and nothing may deadlock.
func TestFreezeKeepsServing(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Create(Spec{Name: "serve", Kind: KindElastic, Capacity: 512, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	h, err := reg.get("serve")
	if err != nil {
		t.Fatal(err)
	}
	live := churnElastic(t, h, 53, 15000)

	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Freeze(noDeadline)
		h.Freeze(noDeadline) // second pass: idempotent no-op
	}()
	extra := h.HashUint64s(workload.NewStream(99).Keys(3000), nil)
	h.Insert(noDeadline, extra)
	<-done

	found, err := h.Contains(noDeadline, live, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("live key %d lost across freeze", i)
		}
	}
}
