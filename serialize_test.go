package vqf

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"testing"
)

func TestFilterSerializeRoundTrip(t *testing.T) {
	f := New(10000, WithSeed(77))
	for i := 0; i < 5000; i++ {
		if err := f.AddString("key-" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != f.Count() {
		t.Fatalf("count %d != %d", g.Count(), f.Count())
	}
	// The seed travels with the filter, so string keys resolve identically.
	for i := 0; i < 5000; i++ {
		if !g.ContainsString("key-" + strconv.Itoa(i)) {
			t.Fatal("false negative after round trip")
		}
	}
	if !g.RemoveString("key-0") {
		t.Fatal("remove failed after round trip")
	}
}

func TestFilter16SerializeRoundTripFacade(t *testing.T) {
	f := New(2000, WithFalsePositiveRate(1.0/65536))
	for i := 0; i < 1000; i++ {
		f.AddUint64(uint64(i))
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if !g.ContainsUint64(uint64(i)) {
			t.Fatal("false negative after 16-bit round trip")
		}
	}
	if g.FalsePositiveRate() != f.FalsePositiveRate() {
		t.Error("FPR metadata lost")
	}
}

func TestConcurrentFilterSerialization(t *testing.T) {
	// Concurrent filters serialize to the same stream as sequential ones
	// (see TestConcurrentSerializePublic for the cross-variant loads)...
	f := NewConcurrent(1000)
	f.AddUint64(42)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Errorf("concurrent filter serialization failed: %v", err)
	}
	// ...but a filter with an in-flight writer must be refused rather than
	// persisted torn; the quiescence check catches held block locks.
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.ContainsUint64(42) {
		t.Error("false negative after concurrent round trip")
	}
}

func TestMapSerializeRoundTrip(t *testing.T) {
	m := NewMap(10000, WithSeed(31))
	for i := 0; i < 5000; i++ {
		if err := m.PutString("key-"+strconv.Itoa(i), byte(i%251)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := NewMapFromReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != m.Count() {
		t.Fatalf("count %d != %d", g.Count(), m.Count())
	}
	// Fingerprint collisions can mis-attribute values (see TestMapManyKeys),
	// so the round-trip property is answer fidelity: the reloaded Map gives
	// byte-identical answers to the original on every key.
	for i := 0; i < 6000; i++ {
		key := "key-" + strconv.Itoa(i)
		wantV, wantOK := m.GetString(key)
		gotV, gotOK := g.GetString(key)
		if gotOK != wantOK || gotV != wantV {
			t.Fatalf("%s: (%d,%v) after round trip, want (%d,%v)", key, gotV, gotOK, wantV, wantOK)
		}
	}
	// The reloaded Map stays mutable.
	if err := g.PutString("new-key", 7); err != nil {
		t.Fatal(err)
	}
	if !g.DeleteHash(0) && !g.Delete([]byte("key-1")) {
		t.Fatal("delete failed after round trip")
	}
}

// TestReadRejectsForgedBlockCount patches a valid stream's block-count field
// to a huge value and checks every decoder fails fast on the length check
// instead of attempting a multi-gigabyte allocation.
func TestReadRejectsForgedBlockCount(t *testing.T) {
	forge := func(stream []byte) []byte {
		out := append([]byte(nil), stream...)
		// Envelope is 16 bytes; the core header stores nblocks at offset 8.
		binary.LittleEndian.PutUint64(out[16+8:], 1<<38) // ~16 TiB of blocks
		return out
	}
	var filterBuf, mapBuf, elasticBuf bytes.Buffer
	pf := New(100)
	pf.AddString("x")
	pf.WriteTo(&filterBuf)
	m := NewMap(100)
	m.PutString("x", 1)
	m.WriteTo(&mapBuf)
	e := NewElastic()
	e.AddString("x")
	e.WriteTo(&elasticBuf)

	if _, err := Read(bytes.NewReader(forge(filterBuf.Bytes()))); err == nil {
		t.Error("Read accepted forged block count")
	}
	if _, err := NewMapFromReader(bytes.NewReader(forge(mapBuf.Bytes()))); err == nil {
		t.Error("NewMapFromReader accepted forged block count")
	}
	// For the elastic stream the core header sits behind the version-4
	// cascade header (96 bytes) and the first level's record (24 bytes) after
	// the envelope.
	forged := append([]byte(nil), elasticBuf.Bytes()...)
	binary.LittleEndian.PutUint64(forged[16+96+24+8:], 1<<38)
	if _, err := ReadElastic(bytes.NewReader(forged)); err == nil {
		t.Error("ReadElastic accepted forged block count")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a filter at all......"))); err == nil {
		t.Error("Read accepted garbage")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("Read accepted empty input")
	}
}
