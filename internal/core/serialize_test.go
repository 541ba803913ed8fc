package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func TestFilter8SerializeRoundTrip(t *testing.T) {
	f := NewFilter8(1<<12, Options{})
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 0, 3000)
	for len(keys) < 3000 {
		h := rng.Uint64()
		if f.Insert(h) {
			keys = append(keys, h)
		}
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	g, err := ReadFilter8(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != f.Count() || g.Capacity() != f.Capacity() {
		t.Fatalf("count/capacity mismatch after round trip")
	}
	for _, h := range keys {
		if !g.Contains(h) {
			t.Fatal("false negative after deserialization")
		}
	}
	// The deserialized filter remains fully operational.
	if !g.Remove(keys[0]) {
		t.Fatal("remove failed after deserialization")
	}
	if !g.Insert(rng.Uint64()) {
		t.Fatal("insert failed after deserialization")
	}
}

func TestFilter16SerializeRoundTrip(t *testing.T) {
	f := NewFilter16(1<<11, Options{NoShortcut: true})
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 0, 1500)
	for len(keys) < 1500 {
		h := rng.Uint64()
		if f.Insert(h) {
			keys = append(keys, h)
		}
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFilter16(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range keys {
		if !g.Contains(h) {
			t.Fatal("false negative after deserialization")
		}
	}
	if !g.opts.NoShortcut {
		t.Error("options not preserved")
	}
}

func TestDeserializeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short":       {1, 2, 3},
		"bad-magic":   bytes.Repeat([]byte{0xff}, headerBytes),
		"wrong-type":  nil, // filled below: a Filter16 stream fed to ReadFilter8
		"truncated":   nil, // header OK but body cut short
		"bad-version": nil,
	}
	var buf bytes.Buffer
	NewFilter16(1<<8, Options{}).WriteTo(&buf)
	cases["wrong-type"] = buf.Bytes()

	var buf2 bytes.Buffer
	NewFilter8(1<<8, Options{}).WriteTo(&buf2)
	cases["truncated"] = buf2.Bytes()[:headerBytes+10]

	bad := append([]byte(nil), buf2.Bytes()[:headerBytes]...)
	bad[4] = 99 // version
	cases["bad-version"] = bad

	for name, data := range cases {
		if _, err := ReadFilter8(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadFilter8 accepted malformed input", name)
		}
	}
}

func TestDeserializeRejectsNonPow2Blocks(t *testing.T) {
	var buf bytes.Buffer
	NewFilter8(1<<8, Options{}).WriteTo(&buf)
	data := buf.Bytes()
	data[8] = 3 // block count 3: not a power of two
	if _, err := ReadFilter8(bytes.NewReader(data)); err == nil {
		t.Error("accepted non-power-of-two block count")
	}
}

// TestDeserializeRejectsOverCapacityCount pins the pre-allocation count
// check: a header whose count no block array of the declared size could hold
// must be refused before any blocks are read.
func TestDeserializeRejectsOverCapacityCount(t *testing.T) {
	var buf bytes.Buffer
	NewFilter8(1<<8, Options{}).WriteTo(&buf)
	data := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint64(data[16:], ^uint64(0)) // count field
	if _, err := ReadFilter8(bytes.NewReader(data)); err == nil {
		t.Error("accepted count exceeding block capacity")
	}

	var kvBuf bytes.Buffer
	NewKV8(1 << 8).WriteTo(&kvBuf)
	kvData := append([]byte(nil), kvBuf.Bytes()...)
	binary.LittleEndian.PutUint64(kvData[16:], ^uint64(0))
	if _, err := ReadKV8(bytes.NewReader(kvData)); err == nil {
		t.Error("KV reader accepted count exceeding block capacity")
	}
}

// TestSizedReadersRejectGeometryMismatch: when the expected geometry is known
// (elastic levels), a stream with a structurally valid but different block
// count must be refused.
func TestSizedReadersRejectGeometryMismatch(t *testing.T) {
	var buf bytes.Buffer
	f8 := NewFilter8(1<<10, Options{})
	f8.WriteTo(&buf)
	if _, err := ReadFilter8Sized(bytes.NewReader(buf.Bytes()), 1<<10); err != nil {
		t.Fatalf("matching geometry rejected: %v", err)
	}
	if _, err := ReadFilter8Sized(bytes.NewReader(buf.Bytes()), 1<<14); err == nil {
		t.Error("8-bit stream with mismatched block count accepted")
	}

	var buf16 bytes.Buffer
	NewFilter16(1<<10, Options{}).WriteTo(&buf16)
	if _, err := ReadFilter16Sized(bytes.NewReader(buf16.Bytes()), 1<<10); err != nil {
		t.Fatalf("matching 16-bit geometry rejected: %v", err)
	}
	if _, err := ReadFilter16Sized(bytes.NewReader(buf16.Bytes()), 1<<14); err == nil {
		t.Error("16-bit stream with mismatched block count accepted")
	}
}

// TestReadRejectsUnknownFlags: every header flag bit but NoShortcut is
// refused. Bit 1 (independent-hash partner blocks) in particular: a reader
// that accepted it would probe the xor partner, so keys stored in their
// independent partner block would read as absent.
func TestReadRejectsUnknownFlags(t *testing.T) {
	var buf8, buf16 bytes.Buffer
	NewFilter8(1<<8, Options{NoShortcut: true}).WriteTo(&buf8)
	NewCFilter16(1<<8, Options{NoShortcut: true}).WriteTo(&buf16)
	for _, bit := range []uint16{1 << 1, 1 << 15} {
		data8 := append([]byte(nil), buf8.Bytes()...)
		binary.LittleEndian.PutUint16(data8[6:], flagNoShortcut|bit)
		if _, err := ReadFilter8(bytes.NewReader(data8)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("ReadFilter8 with flag %#x: err %v, want ErrBadFormat", bit, err)
		}
		data16 := append([]byte(nil), buf16.Bytes()...)
		binary.LittleEndian.PutUint16(data16[6:], flagNoShortcut|bit)
		if _, err := ReadCFilter16(bytes.NewReader(data16)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("ReadCFilter16 with flag %#x: err %v, want ErrBadFormat", bit, err)
		}
	}
	g, err := ReadCFilter16(bytes.NewReader(buf16.Bytes()))
	if err != nil || !g.opts.NoShortcut {
		t.Fatalf("NoShortcut flag did not round-trip: %v", err)
	}
}
