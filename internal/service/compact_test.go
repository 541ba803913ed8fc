package service

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"vqf/internal/workload"
)

// churnElastic drives a hosted elastic filter deep into a sparse cascade:
// insert enough to stack levels, then remove an old prefix. Returns the
// still-live key hashes.
func churnElastic(t *testing.T, h *hosted, seed uint64, total int) []uint64 {
	t.Helper()
	hs := h.HashUint64s(workload.NewStream(seed).Keys(total), nil)
	if n, err := h.Insert(noDeadline, hs); err != nil || n != total {
		t.Fatalf("insert %d/%d: %v", n, total, err)
	}
	cut := total * 3 / 4
	if n, err := h.Remove(noDeadline, hs[:cut]); err != nil || n != cut {
		t.Fatalf("remove %d/%d: %v", n, cut, err)
	}
	return hs[cut:]
}

// TestHTTPCompact exercises the admin compact op end-to-end: a churned
// elastic cascade shrinks its level count, keeps its live keys, and a
// non-elastic filter rejects the op.
func TestHTTPCompact(t *testing.T) {
	srv := startServer(t, Config{})
	admin := NewAdmin("http://" + srv.HTTPAddr())

	if _, err := admin.Create(Spec{Name: "grow", Kind: KindElastic, Capacity: 512, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	h, err := srv.reg.get("grow")
	if err != nil {
		t.Fatal(err)
	}
	live := churnElastic(t, h, 31, 20000)

	res, err := admin.Compact("grow")
	if err != nil {
		t.Fatal(err)
	}
	if res.LevelsMerged == 0 || res.LevelsAfter >= res.LevelsBefore {
		t.Fatalf("compaction did not shrink the cascade: %+v", res)
	}
	found, err := h.Contains(noDeadline, live, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("live key %d lost after admin compaction", i)
		}
	}

	if _, err := admin.Create(Spec{Name: "flat", Kind: KindPlain, Capacity: 4096}); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Compact("flat"); err == nil || !strings.Contains(err.Error(), "elastic") {
		t.Fatalf("compact on a plain filter: %v", err)
	}
	if _, err := admin.Compact("missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("compact on a missing filter: %v", err)
	}
}

// TestCompactNotElastic checks the hosted-level error for every
// non-elastic kind.
func TestCompactNotElastic(t *testing.T) {
	reg := NewRegistry()
	for _, kind := range Kinds() {
		if kind == KindElastic {
			continue
		}
		name := "ne-" + string(kind)
		if _, err := reg.Create(Spec{Name: name, Kind: kind, Capacity: 4096}); err != nil {
			t.Fatal(err)
		}
		h, _ := reg.get(name)
		if _, err := h.Compact(noDeadline); !errors.Is(err, ErrNotElastic) {
			t.Fatalf("%s: Compact error %v, want ErrNotElastic", kind, err)
		}
	}
}

// TestSnapshotDuringCompaction is the snapshot-consistency test: snapshots
// race a loop of compactions and churn on a hosted elastic filter. The
// hosted write lock orders each snapshot entirely before or after any
// compaction, so every snapshot must restore to a filter that answers true
// for every key live at that snapshot's cut — never a torn level list.
func TestSnapshotDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if _, err := reg.Create(Spec{Name: "snap", Kind: KindElastic, Capacity: 512, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	h, err := reg.get("snap")
	if err != nil {
		t.Fatal(err)
	}
	// Stable live set, established before the race: every snapshot must
	// contain it regardless of where it lands relative to a compaction.
	stable := churnElastic(t, h, 41, 15000)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		churnStream := workload.NewStream(77)
		for {
			select {
			case <-stop:
				return
			default:
			}
			hs := h.HashUint64s(churnStream.Keys(2000), nil)
			h.Insert(noDeadline, hs)
			h.Remove(noDeadline, hs[:1500])
			h.Compact(noDeadline)
		}
	}()

	for i := 0; i < 8; i++ {
		man, err := reg.SnapshotTo(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.Filters) != 1 {
			t.Fatalf("manifest filters %d", len(man.Filters))
		}
		loaded, warns := LoadDir(dir)
		if len(warns) != 0 {
			t.Fatalf("snapshot %d restored with warnings: %v", i, warns)
		}
		restored, err := loaded.get("snap")
		if err != nil {
			t.Fatal(err)
		}
		found, err := restored.Contains(noDeadline, stable, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j, ok := range found {
			if !ok {
				t.Fatalf("snapshot %d: stable key %d missing from restored filter", i, j)
			}
		}
	}
	close(stop)
	wg.Wait()
}
