package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vqf"
	"vqf/internal/workload"
)

// TestWarmRestartAllKinds round-trips every hostable kind through
// snapshot → LoadDir and verifies counts, membership, and (for the map
// kind) stored values survive.
func TestWarmRestartAllKinds(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	const n = 4000
	keys := workload.NewStream(21).Keys(n)
	for _, kind := range Kinds() {
		name := "wr-" + string(kind)
		if _, err := reg.Create(Spec{Name: name, Kind: kind, Capacity: 1 << 14, Seed: 99}); err != nil {
			t.Fatalf("create %s: %v", kind, err)
		}
		h, err := reg.get(name)
		if err != nil {
			t.Fatal(err)
		}
		hs := h.HashUint64s(keys, nil)
		if kind == KindMap {
			vals := make([]byte, n)
			for i := range vals {
				vals[i] = byte(i * 7)
			}
			if got, err := h.Put(noDeadline, hs, vals, false); err != nil || got != n {
				t.Fatalf("%s put %d/%d: %v", kind, got, n, err)
			}
		} else {
			if got, err := h.Insert(noDeadline, hs); err != nil || got != n {
				t.Fatalf("%s insert %d/%d: %v", kind, got, n, err)
			}
		}
	}

	man, err := reg.SnapshotTo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Filters) != len(Kinds()) {
		t.Fatalf("manifest has %d filters, want %d", len(man.Filters), len(Kinds()))
	}

	loaded, warns := LoadDir(dir)
	if len(warns) != 0 {
		t.Fatalf("warnings on clean load: %v", warns)
	}
	for _, kind := range Kinds() {
		name := "wr-" + string(kind)
		orig, _ := reg.get(name)
		h, err := loaded.get(name)
		if err != nil {
			t.Fatalf("%s missing after restart", kind)
		}
		if got, want := h.filter.Count(), orig.filter.Count(); got != want {
			t.Fatalf("%s count %d after restart, want %d", kind, got, want)
		}
		if h.spec.Seed != 99 {
			t.Fatalf("%s seed %d after restart, want 99", kind, h.spec.Seed)
		}
		hs := h.HashUint64s(keys, nil)
		found, err := h.Contains(noDeadline, hs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range found {
			if !ok {
				t.Fatalf("%s key %d absent after restart", kind, i)
			}
		}
		if kind == KindMap {
			// Fingerprint collisions can make a stored key resolve to another
			// key's value, so the contract is bit-parity with the pre-snapshot
			// filter, not the originally-written values.
			wantVals, wantFound, err := orig.Get(noDeadline, hs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			vals, vfound, err := h.Get(noDeadline, hs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range hs {
				if vfound[i] != wantFound[i] || vals[i] != wantVals[i] {
					t.Fatalf("map key %d diverged across restart: found=%v val=%d, want found=%v val=%d",
						i, vfound[i], vals[i], wantFound[i], wantVals[i])
				}
			}
		}
	}
}

func TestLoadDirColdStart(t *testing.T) {
	reg, warns := LoadDir(filepath.Join(t.TempDir(), "nonexistent"))
	if len(warns) != 0 || reg.Len() != 0 {
		t.Fatalf("cold start: %d filters, warns %v", reg.Len(), warns)
	}
}

func TestLoadDirCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, warns := LoadDir(dir)
	if reg.Len() != 0 {
		t.Fatalf("corrupt manifest loaded %d filters", reg.Len())
	}
	if len(warns) != 1 || !strings.Contains(warns[0].Error(), "corrupt manifest") {
		t.Fatalf("warnings: %v", warns)
	}
}

// TestLoadDirTruncatedFile corrupts one filter file; the rest of the
// snapshot must still load, with a warning naming the loss.
func TestLoadDirTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	keys := workload.NewStream(5).Keys(1000)
	for _, name := range []string{"keep", "lose"} {
		if _, err := reg.Create(Spec{Name: name, Kind: KindPlain, Capacity: 1 << 12}); err != nil {
			t.Fatal(err)
		}
		h, _ := reg.get(name)
		if _, err := h.Insert(noDeadline, h.HashUint64s(keys, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.SnapshotTo(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "lose"+snapshotSuffix)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	loaded, warns := LoadDir(dir)
	if len(warns) != 1 || !strings.Contains(warns[0].Error(), `"lose"`) {
		t.Fatalf("warnings: %v", warns)
	}
	if _, err := loaded.get("lose"); err == nil {
		t.Fatal("truncated filter loaded anyway")
	}
	h, err := loaded.get("keep")
	if err != nil {
		t.Fatal(err)
	}
	if h.filter.Count() != 1000 {
		t.Fatalf("intact filter count %d after partial restart", h.filter.Count())
	}
}

// TestLoadDirBitFlip flips one byte mid-file; the CRC must catch it.
func TestLoadDirBitFlip(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	if _, err := reg.Create(Spec{Name: "crc", Kind: KindConcurrent, Capacity: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	h, _ := reg.get("crc")
	if _, err := h.Insert(noDeadline, h.HashUint64s(workload.NewStream(6).Keys(500), nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SnapshotTo(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "crc"+snapshotSuffix)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, warns := LoadDir(dir)
	if loaded.Len() != 0 {
		t.Fatal("bit-flipped filter loaded anyway")
	}
	if len(warns) != 1 || !strings.Contains(warns[0].Error(), "CRC mismatch") {
		t.Fatalf("warnings: %v", warns)
	}
}

// TestSnapshotRemovesStale drops a filter between snapshots; the second
// snapshot must delete its orphaned file.
func TestSnapshotRemovesStale(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Create(Spec{Name: name, Kind: KindPlain, Capacity: 1 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.SnapshotTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SnapshotTo(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "b"+snapshotSuffix)); !os.IsNotExist(err) {
		t.Fatalf("dropped filter's file still present: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a"+snapshotSuffix)); err != nil {
		t.Fatalf("live filter's file missing: %v", err)
	}
	loaded, warns := LoadDir(dir)
	if len(warns) != 0 || loaded.Len() != 1 {
		t.Fatalf("reload after drop: %d filters, warns %v", loaded.Len(), warns)
	}
}

// TestServerFinalSnapshot checks the Shutdown contract end to end in
// process: inserts acknowledged over the binary protocol are present after
// constructing a new server on the same data directory.
func TestServerFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, Config{DataDir: dir})
	if _, err := srv.Registry().Create(Spec{Name: "durable", Kind: KindSharded, Capacity: 1 << 14}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.NewStream(33).Keys(2500)
	if n, err := c.Insert("durable", keys); err != nil || n != len(keys) {
		t.Fatalf("insert %d: %v", n, err)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{HTTPAddr: "127.0.0.1:0", DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(srv2.Warnings()) != 0 {
		t.Fatalf("restart warnings: %v", srv2.Warnings())
	}
	h, err := srv2.Registry().get("durable")
	if err != nil {
		t.Fatal(err)
	}
	found, err := h.Contains(noDeadline, h.HashUint64s(keys, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("acknowledged key %d lost across restart", i)
		}
	}
}

// TestShardCountRecorded checks that a sharded filter's spec holds the
// shard count the filter has: Create rejects counts outside [0, 256],
// records the rounded-up count it built (the GOMAXPROCS default included),
// and the snapshot manifest carries it. A warm restart takes the count
// from the loaded stream, so a manifest written with an unbuildable count
// still loads and reports the filter's real shards.
func TestShardCountRecorded(t *testing.T) {
	def := 1
	for def < runtime.GOMAXPROCS(0) && def < maxShards {
		def <<= 1
	}
	reg := NewRegistry()
	for _, tc := range []struct {
		shards, want int // want 0: Create must reject
	}{
		{-3, 0}, {0, def}, {1, 1}, {3, 4}, {4, 4}, {256, 256}, {257, 0}, {1000, 0},
	} {
		name := fmt.Sprintf("s%d", tc.shards)
		info, err := reg.Create(Spec{Name: name, Kind: KindSharded, Capacity: 1 << 14, Shards: tc.shards})
		if tc.want == 0 {
			if err == nil {
				t.Errorf("shards %d: accepted, recorded %d", tc.shards, info.Shards)
			}
			continue
		}
		if err != nil {
			t.Fatalf("shards %d: %v", tc.shards, err)
		}
		h, _ := reg.get(name)
		if got := h.filter.(*vqf.Filter).NumShards(); got != tc.want || info.Shards != tc.want {
			t.Errorf("shards %d: built %d, recorded %d, want %d", tc.shards, got, info.Shards, tc.want)
		}
	}
	dir := t.TempDir()
	man, err := reg.SnapshotTo(dir)
	if err != nil {
		t.Fatal(err)
	}
	built := map[string]int{}
	for _, e := range man.Filters {
		h, _ := reg.get(e.Name)
		if built[e.Name] = h.filter.(*vqf.Filter).NumShards(); e.Shards != built[e.Name] {
			t.Errorf("%s: manifest records %d shards, filter has %d", e.Name, e.Shards, built[e.Name])
		}
	}

	// Rewrite the manifest the way an older daemon wrote it: the requested
	// count verbatim, however far from what it built.
	legacy := []int{-3, 1000, 0, 7}
	for i := range man.Filters {
		man.Filters[i].Shards = legacy[i%len(legacy)]
	}
	buf, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, warns := LoadDir(dir)
	if len(warns) != 0 {
		t.Fatalf("legacy manifest: %v", warns)
	}
	if loaded.Len() != len(built) {
		t.Fatalf("loaded %d filters, want %d", loaded.Len(), len(built))
	}
	for _, info := range loaded.List() {
		if info.Shards != built[info.Name] {
			t.Errorf("%s after restart: recorded %d shards, stream has %d", info.Name, info.Shards, built[info.Name])
		}
	}
}
