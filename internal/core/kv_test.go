package core

import (
	"math/rand"
	"testing"

	"vqf/internal/hashing"
)

func TestKVPutGet(t *testing.T) {
	f := NewKV8(1 << 14)
	rng := rand.New(rand.NewSource(1))
	keys := make(map[uint64]byte)
	n := f.Capacity() * 80 / 100
	for uint64(len(keys)) < n {
		h := rng.Uint64()
		if _, dup := keys[h]; dup {
			continue
		}
		v := byte(rng.Intn(256))
		if !f.Put(h, v) {
			t.Fatalf("Put failed at LF %.3f", f.LoadFactor())
		}
		keys[h] = v
	}
	wrong := 0
	for h, v := range keys {
		got, ok := f.Get(h)
		if !ok {
			t.Fatal("Get miss for stored key (false negative)")
		}
		if got != v {
			wrong++ // possible only via fingerprint collision
		}
	}
	// Collision-caused wrong values are bounded by ≈ n·ε.
	if frac := float64(wrong) / float64(len(keys)); frac > 0.02 {
		t.Errorf("%.4f of lookups returned a collided value", frac)
	}
}

func TestKVGetAbsent(t *testing.T) {
	f := NewKV8(1 << 12)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		f.Put(rng.Uint64(), byte(i))
	}
	hits := 0
	for i := 0; i < 100000; i++ {
		if _, ok := f.Get(rng.Uint64()); ok {
			hits++
		}
	}
	if rate := float64(hits) / 100000; rate > 0.01 {
		t.Errorf("absent-key hit rate %.5f too high", rate)
	}
}

func TestKVUpdate(t *testing.T) {
	f := NewKV8(1 << 10)
	const h = 0x1122334455667788
	if !f.Put(h, 7) {
		t.Fatal("put failed")
	}
	if !f.Update(h, 9) {
		t.Fatal("update failed")
	}
	if v, ok := f.Get(h); !ok || v != 9 {
		t.Fatalf("Get = (%d, %v), want (9, true)", v, ok)
	}
	if f.Update(h^0x1, 3) {
		t.Log("note: update of absent key matched a collision (allowed, rare)")
	}
}

func TestKVDelete(t *testing.T) {
	f := NewKV8(1 << 12)
	rng := rand.New(rand.NewSource(3))
	type pair struct {
		h uint64
		v byte
	}
	var pairs []pair
	for i := 0; i < 2000; i++ {
		p := pair{rng.Uint64(), byte(rng.Intn(256))}
		if !f.Put(p.h, p.v) {
			t.Fatal("put failed")
		}
		pairs = append(pairs, p)
	}
	for _, p := range pairs[:1000] {
		if !f.Delete(p.h) {
			t.Fatal("delete of stored key failed")
		}
	}
	if f.Count() != 1000 {
		t.Fatalf("Count = %d", f.Count())
	}
	// Remaining pairs still resolve to their values (minus rare collisions).
	wrong := 0
	for _, p := range pairs[1000:] {
		v, ok := f.Get(p.h)
		if !ok {
			t.Fatal("false negative after deletes")
		}
		if v != p.v {
			wrong++
		}
	}
	if wrong > 40 {
		t.Errorf("%d/1000 wrong values after deletes", wrong)
	}
}

func TestKVValuesTrackShifts(t *testing.T) {
	// Force many keys into one block's buckets so inserts shift fingerprints;
	// the values must follow their fingerprints exactly.
	f := NewKV8(96) // 2 blocks
	rng := rand.New(rand.NewSource(4))
	type pair struct {
		h uint64
		v byte
	}
	var pairs []pair
	for i := 0; i < 60; i++ {
		p := pair{rng.Uint64(), byte(i + 1)}
		if !f.Put(p.h, p.v) {
			break // tiny filter may fill; that's fine
		}
		pairs = append(pairs, p)
	}
	wrong := 0
	for _, p := range pairs {
		v, ok := f.Get(p.h)
		if !ok {
			t.Fatal("false negative in dense block")
		}
		if v != p.v {
			wrong++
		}
	}
	// In a 2-block filter fingerprint collisions are plausible but must stay
	// rare relative to 60 keys.
	if wrong > 3 {
		t.Errorf("%d/%d values wrong after dense shifting", wrong, len(pairs))
	}
}

func TestKVModelBased(t *testing.T) {
	f := NewKV8(1 << 10)
	rng := rand.New(rand.NewSource(5))
	type fpID struct {
		blk    uint64
		bucket uint
		fp     byte
	}
	// Model on fingerprint identity: Get returns the value of some key with
	// the same fingerprint identity. Keys are mutually confusable exactly
	// when they share (bucket, fp) and the same unordered block pair, so the
	// identity uses the smaller block index of the pair.
	ident := func(h uint64) fpID {
		b1, bucket, fp, tag := split8(h, f.mask)
		b2 := hashing.AltIndex(b1, tag, f.mask)
		if b2 < b1 {
			b1 = b2
		}
		return fpID{b1, bucket, fp}
	}
	model := map[fpID][]byte{}
	var live []uint64
	for step := 0; step < 50000; step++ {
		switch {
		case rng.Intn(2) == 0 && f.LoadFactor() < 0.85:
			h := rng.Uint64()
			v := byte(rng.Intn(256))
			if !f.Put(h, v) {
				continue
			}
			id := ident(h)
			model[id] = append(model[id], v)
			live = append(live, h)
		case len(live) > 0:
			i := rng.Intn(len(live))
			h := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			id := ident(h)
			if !f.Delete(h) {
				t.Fatalf("step %d: delete of live key failed", step)
			}
			if len(model[id]) == 0 {
				t.Fatalf("step %d: model empty for deleted key", step)
			}
			model[id] = model[id][:len(model[id])-1]
			if len(model[id]) == 0 {
				delete(model, id)
			}
		}
		if step%1000 == 0 && len(live) > 0 {
			h := live[rng.Intn(len(live))]
			v, ok := f.Get(h)
			if !ok {
				t.Fatalf("step %d: false negative", step)
			}
			id := ident(h)
			found := false
			for _, mv := range model[id] {
				if mv == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("step %d: Get returned %d, not among identity's values %v",
					step, v, model[id])
			}
		}
	}
}
