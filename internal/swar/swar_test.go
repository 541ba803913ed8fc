package swar

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// setLane8 stores v into byte lane i.
func setLane8(fps *[Words8]uint64, i int, v byte) {
	s := uint(i&7) * 8
	fps[i>>3] = fps[i>>3]&^(0xff<<s) | uint64(v)<<s
}

// setLane16 stores v into uint16 lane i.
func setLane16(fps *[Words16]uint64, i int, v uint16) {
	s := uint(i&3) * 16
	fps[i>>2] = fps[i>>2]&^(0xffff<<s) | uint64(v)<<s
}

// packLanes8 assembles 48 byte lanes into the word-native layout.
func packLanes8(lanes *[48]byte) (fps [Words8]uint64) {
	for i, b := range lanes {
		setLane8(&fps, i, b)
	}
	return
}

// unpackLanes8 is the inverse of packLanes8, via the lane accessor.
func unpackLanes8(fps *[Words8]uint64) (lanes [48]byte) {
	for i := range lanes {
		lanes[i] = Lane8(fps, i)
	}
	return
}

func packLanes16(lanes *[28]uint16) (fps [Words16]uint64) {
	for i, v := range lanes {
		setLane16(&fps, i, v)
	}
	return
}

func unpackLanes16(fps *[Words16]uint64) (lanes [28]uint16) {
	for i := range lanes {
		lanes[i] = Lane16(fps, i)
	}
	return
}

// The MatchByteMask/MatchU16Mask tests check the one-word lane compares
// (matchBytesB, matchU16B) that every block match is built from.

func TestMatchByteMaskExhaustivePattern(t *testing.T) {
	// Every target byte against words built from nearby values, which is
	// where zero-detection tricks typically break (off-by-one lanes).
	for target := 0; target < 256; target++ {
		var word uint64
		var data [8]byte
		for i := range data {
			data[i] = byte(target + i - 4)
			word |= uint64(data[i]) << (8 * i)
		}
		got := uint8(matchBytesB(word, BroadcastByte(byte(target))))
		var want uint8
		for i, b := range data {
			if b == byte(target) {
				want |= 1 << i
			}
		}
		if got != want {
			t.Fatalf("matchBytesB(%#x, %#x) = %#b, want %#b", word, target, got, want)
		}
	}
}

func TestMatchByteMaskRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		word := rng.Uint64()
		target := byte(rng.Intn(256))
		got := uint8(matchBytesB(word, BroadcastByte(target)))
		var want uint8
		for lane := 0; lane < 8; lane++ {
			if byte(word>>(8*lane)) == target {
				want |= 1 << lane
			}
		}
		if got != want {
			t.Fatalf("matchBytesB(%#x, %#x) = %#b, want %#b", word, target, got, want)
		}
	}
}

func TestMatchU16MaskRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		word := rng.Uint64()
		target := uint16(rng.Intn(1 << 16))
		got := uint8(matchU16B(word, BroadcastU16(target)))
		var want uint8
		for lane := 0; lane < 4; lane++ {
			if uint16(word>>(16*lane)) == target {
				want |= 1 << lane
			}
		}
		if got != want {
			t.Fatalf("matchU16B(%#x, %#x) = %#b, want %#b", word, target, got, want)
		}
	}
}

func TestMatchU16MaskAllLanesMatch(t *testing.T) {
	for _, v := range []uint16{0, 1, 0x7fff, 0x8000, 0xffff} {
		word := BroadcastU16(v)
		if got := matchU16B(word, BroadcastU16(v)); got != 0b1111 {
			t.Errorf("matchU16B(broadcast %#x) = %#b, want 1111", v, got)
		}
	}
}

// scalarMatch48 is the lane-by-lane reference for Match48Range: bit i set
// iff lane i lies in [start, end) and equals target.
func scalarMatch48(lanes *[48]byte, target byte, start, end uint) uint64 {
	var want uint64
	for i := start; i < end; i++ {
		if lanes[i] == target {
			want |= 1 << i
		}
	}
	return want
}

// scalarMatch28 is the lane-by-lane reference for Match28Range.
func scalarMatch28(lanes *[28]uint16, target uint16, start, end uint) uint64 {
	var want uint64
	for i := start; i < end; i++ {
		if lanes[i] == target {
			want |= 1 << i
		}
	}
	return want
}

// TestMatch48 checks the full-block range [0, 48) against the scalar loop.
func TestMatch48(t *testing.T) {
	var lanes [48]byte
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		rng.Read(lanes[:])
		target := byte(rng.Intn(256))
		// Plant a few guaranteed matches.
		for j := 0; j < 3; j++ {
			lanes[rng.Intn(48)] = target
		}
		fps := packLanes8(&lanes)
		got := Match48Range(&fps, BroadcastByte(target), 0, 48)
		if want := scalarMatch48(&lanes, target, 0, 48); got != want {
			t.Fatalf("Match48Range(0,48) = %#x, want %#x", got, want)
		}
	}
}

// TestMatch28 checks the full-block range [0, 28) against the scalar loop.
func TestMatch28(t *testing.T) {
	var lanes [28]uint16
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		for i := range lanes {
			lanes[i] = uint16(rng.Intn(1 << 16))
		}
		target := uint16(rng.Intn(1 << 16))
		lanes[rng.Intn(28)] = target
		fps := packLanes16(&lanes)
		got := Match28Range(&fps, BroadcastU16(target), 0, 28)
		if want := scalarMatch28(&lanes, target, 0, 28); got != want {
			t.Fatalf("Match28Range(0,28) = %#x, want %#x", got, want)
		}
	}
}

func TestLaneAccessorsRoundTrip(t *testing.T) {
	var lanes [48]byte
	rng := rand.New(rand.NewSource(5))
	rng.Read(lanes[:])
	fps := packLanes8(&lanes)
	if unpackLanes8(&fps) != lanes {
		t.Fatal("Lane8/setLane8 round trip mismatch")
	}
	var lanes16 [28]uint16
	for i := range lanes16 {
		lanes16[i] = uint16(rng.Intn(1 << 16))
	}
	fps16 := packLanes16(&lanes16)
	if unpackLanes16(&fps16) != lanes16 {
		t.Fatal("Lane16/setLane16 round trip mismatch")
	}
}

func TestRangeMask(t *testing.T) {
	cases := []struct {
		start, end uint
		want       uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, ^uint64(0)},
		{3, 5, 0b11000},
		{63, 64, 1 << 63},
		{10, 10, 0},
	}
	for _, c := range cases {
		if got := RangeMask(c.start, c.end); got != c.want {
			t.Errorf("RangeMask(%d,%d) = %#x, want %#x", c.start, c.end, got, c.want)
		}
	}
}

func TestRangeMaskProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		start, end := uint(a)%65, uint(b)%65
		if start > end {
			start, end = end, start
		}
		m := RangeMask(start, end)
		for i := uint(0); i < 64; i++ {
			in := i >= start && i < end
			if (m>>i&1 == 1) != in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRemoveLane8AgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 5000; trial++ {
		var lanes [48]byte
		occ := rng.Intn(48) // insert requires a free top lane
		for i := 0; i < occ; i++ {
			lanes[i] = byte(1 + rng.Intn(255))
		}
		z := rng.Intn(occ + 1)
		fp := byte(rng.Intn(256))

		fps := packLanes8(&lanes)
		InsertLane8(&fps, z, fp)

		var want [48]byte
		copy(want[:z], lanes[:z])
		want[z] = fp
		copy(want[z+1:], lanes[z:47])
		if got := unpackLanes8(&fps); got != want {
			t.Fatalf("InsertLane8(z=%d): got %v, want %v", z, got, want)
		}

		// Removing the lane just inserted must restore the original array.
		RemoveLane8(&fps, z)
		if got := unpackLanes8(&fps); got != lanes {
			t.Fatalf("RemoveLane8(z=%d) did not invert insert: got %v, want %v", z, got, lanes)
		}
	}
}

func TestInsertRemoveLane16AgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		var lanes [28]uint16
		occ := rng.Intn(28)
		for i := 0; i < occ; i++ {
			lanes[i] = uint16(1 + rng.Intn(1<<16-1))
		}
		z := rng.Intn(occ + 1)
		fp := uint16(rng.Intn(1 << 16))

		fps := packLanes16(&lanes)
		InsertLane16(&fps, z, fp)

		var want [28]uint16
		copy(want[:z], lanes[:z])
		want[z] = fp
		copy(want[z+1:], lanes[z:27])
		if got := unpackLanes16(&fps); got != want {
			t.Fatalf("InsertLane16(z=%d): got %v, want %v", z, got, want)
		}

		RemoveLane16(&fps, z)
		if got := unpackLanes16(&fps); got != lanes {
			t.Fatalf("RemoveLane16(z=%d) did not invert insert: got %v, want %v", z, got, lanes)
		}
	}
}

func TestRemoveLane8FeedsZeroAtTop(t *testing.T) {
	var lanes [48]byte
	for i := range lanes {
		lanes[i] = byte(i + 1)
	}
	fps := packLanes8(&lanes)
	RemoveLane8(&fps, 0)
	got := unpackLanes8(&fps)
	for i := 0; i < 47; i++ {
		if got[i] != lanes[i+1] {
			t.Fatalf("lane %d = %d, want %d", i, got[i], lanes[i+1])
		}
	}
	if got[47] != 0 {
		t.Fatalf("top lane = %d, want 0", got[47])
	}
}

func TestBroadcast(t *testing.T) {
	if BroadcastByte(0xab) != 0xabababababababab {
		t.Error("BroadcastByte wrong")
	}
	if BroadcastU16(0x1234) != 0x1234123412341234 {
		t.Error("BroadcastU16 wrong")
	}
}

func BenchmarkMatch48(b *testing.B) {
	var lanes [48]byte
	rand.New(rand.NewSource(5)).Read(lanes[:])
	fps := packLanes8(&lanes)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Match48Range(&fps, BroadcastByte(byte(i)), 0, 48)
	}
	_ = sink
}

func BenchmarkMatch28(b *testing.B) {
	var lanes [28]uint16
	rng := rand.New(rand.NewSource(6))
	for i := range lanes {
		lanes[i] = uint16(rng.Intn(1 << 16))
	}
	fps := packLanes16(&lanes)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Match28Range(&fps, BroadcastU16(uint16(i)), 0, 28)
	}
	_ = sink
}

func BenchmarkInsertRemoveLane8(b *testing.B) {
	var lanes [48]byte
	rand.New(rand.NewSource(7)).Read(lanes[:])
	lanes[47] = 0
	fps := packLanes8(&lanes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := i % 47
		InsertLane8(&fps, z, byte(i))
		RemoveLane8(&fps, z)
	}
}
