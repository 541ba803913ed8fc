package vqf

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzRead feeds arbitrary bytes to every deserializer in the package —
// Filter, Map and Elastic share the envelope format, so each decoder sees
// the others' streams too. All three must reject malformed input with an
// error (never a panic or a giant allocation) and round-trip anything they
// accept.
func FuzzRead(f *testing.F) {
	var filterBuf bytes.Buffer
	g := New(100)
	g.AddString("seed")
	g.WriteTo(&filterBuf)
	f.Add(filterBuf.Bytes())

	var mapBuf bytes.Buffer
	m := NewMap(100)
	m.PutString("seed", 42)
	m.WriteTo(&mapBuf)
	f.Add(mapBuf.Bytes())

	var elasticBuf bytes.Buffer
	e := NewElastic(WithInitialCapacity(256))
	for i := uint64(0); i < 1500; i++ { // force a couple of growth events
		e.AddUint64(i)
	}
	e.WriteTo(&elasticBuf)
	f.Add(elasticBuf.Bytes())

	// A cascade carrying frozen fuse levels with tombstones, a standalone
	// frozen filter ('F') and a sharded filter ('S').
	var fuseBuf bytes.Buffer
	fe := NewElastic(WithInitialCapacity(256))
	for i := uint64(0); i < 1500; i++ {
		fe.AddUint64(i)
	}
	if fe.FreezeNow().FuseLevels == 0 {
		f.Fatal("seed cascade froze no level")
	}
	for i := uint64(0); i < 100; i++ {
		fe.RemoveUint64(i)
	}
	fe.WriteTo(&fuseBuf)
	f.Add(fuseBuf.Bytes())

	// A version-4 cascade carrying a non-default auto-trigger policy.
	var policyBuf bytes.Buffer
	pe := NewElastic(WithInitialCapacity(256), WithAutoCompaction(4, 0.4), WithAutoFreeze(time.Minute, 0.1))
	for i := uint64(0); i < 1500; i++ {
		pe.AddUint64(i)
	}
	pe.WriteTo(&policyBuf)
	f.Add(policyBuf.Bytes())

	var frozenBuf bytes.Buffer
	fz, err := NewFrozen([][]byte{[]byte("seed"), []byte("frozen")})
	if err != nil {
		f.Fatal(err)
	}
	fz.WriteTo(&frozenBuf)
	f.Add(frozenBuf.Bytes())

	var shardedBuf bytes.Buffer
	sh := NewSharded(1000, 4)
	sh.AddString("seed")
	sh.WriteTo(&shardedBuf)
	f.Add(shardedBuf.Bytes())

	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 100))

	// Rejected shapes the hardened readers must refuse before allocating:
	// a core header whose count exceeds the block array's capacity, and an
	// elastic level stream whose block count disagrees with the geometry the
	// cascade config dictates. Offsets: 16-byte envelope, then the core header
	// (count at +16, block count at +8) or the 96-byte version-4 cascade
	// header and the first level's 24-byte record.
	forgedCount := append([]byte(nil), filterBuf.Bytes()...)
	binary.LittleEndian.PutUint64(forgedCount[16+16:], ^uint64(0))
	f.Add(forgedCount)

	forgedKV := append([]byte(nil), mapBuf.Bytes()...)
	binary.LittleEndian.PutUint64(forgedKV[16+16:], ^uint64(0))
	f.Add(forgedKV)

	forgedLevel := append([]byte(nil), elasticBuf.Bytes()...)
	lvlBlocks := binary.LittleEndian.Uint64(forgedLevel[16+96+24+8:])
	binary.LittleEndian.PutUint64(forgedLevel[16+96+24+8:], lvlBlocks/2)
	f.Add(forgedLevel)
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := Read(bytes.NewReader(data)); err == nil {
			// Anything accepted must be a usable filter that re-serializes.
			got.ContainsString("probe")
			var out bytes.Buffer
			if _, err := got.WriteTo(&out); err != nil {
				t.Fatalf("re-serialize of accepted filter failed: %v", err)
			}
		}
		if got, err := NewMapFromReader(bytes.NewReader(data)); err == nil {
			got.GetString("probe")
			var out bytes.Buffer
			if _, err := got.WriteTo(&out); err != nil {
				t.Fatalf("re-serialize of accepted map failed: %v", err)
			}
		}
		if got, err := ReadElastic(bytes.NewReader(data)); err == nil {
			got.ContainsString("probe")
			var out bytes.Buffer
			if _, err := got.WriteTo(&out); err != nil {
				t.Fatalf("re-serialize of accepted elastic failed: %v", err)
			}
		}
		if got, err := ReadFrozen(bytes.NewReader(data)); err == nil {
			got.ContainsString("probe")
			var out bytes.Buffer
			if _, err := got.WriteTo(&out); err != nil {
				t.Fatalf("re-serialize of accepted frozen filter failed: %v", err)
			}
		}
	})
}

// FuzzFilterOps drives the public API with fuzz-chosen keys: added keys must
// always be found, and Count must track adds minus removes of added keys.
func FuzzFilterOps(f *testing.F) {
	seed := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		var rec [8]byte
		binary.LittleEndian.PutUint64(rec[:], uint64(i)*7919)
		seed = append(seed, rec[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		filter := New(1000)
		var added []uint64
		for i := 0; i+7 < len(data) && len(added) < 900; i += 8 {
			k := binary.LittleEndian.Uint64(data[i:])
			if err := filter.AddUint64(k); err != nil {
				break
			}
			added = append(added, k)
		}
		for _, k := range added {
			if !filter.ContainsUint64(k) {
				t.Fatalf("false negative for %d", k)
			}
		}
		for _, k := range added {
			if !filter.RemoveUint64(k) {
				t.Fatalf("remove of added key %d failed", k)
			}
		}
		if filter.Count() != 0 {
			t.Fatalf("count %d after removing all", filter.Count())
		}
	})
}
