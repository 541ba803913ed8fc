package swar

import (
	"math/rand"
	"testing"
)

// The range matches compare only the words overlapping [start, end); these
// tests pin them to the lane-by-lane scalar reference and the boundary
// behaviour.

func TestMatch48RangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var lanes [48]byte
	for trial := 0; trial < 5000; trial++ {
		rng.Read(lanes[:])
		target := byte(rng.Intn(256))
		lanes[rng.Intn(48)] = target
		start := uint(rng.Intn(48))
		end := start + uint(rng.Intn(48-int(start))) + 1
		if end > 48 {
			end = 48
		}
		fps := packLanes8(&lanes)
		bc := BroadcastByte(target)
		want := scalarMatch48(&lanes, target, start, end)
		if got := Match48Range(&fps, bc, start, end); got != want {
			t.Fatalf("Match48Range(%d,%d) = %#x, want %#x", start, end, got, want)
		}
	}
}

func TestMatch48RangeBoundaries(t *testing.T) {
	var lanes [48]byte
	for i := range lanes {
		lanes[i] = 0xaa
	}
	fps := packLanes8(&lanes)
	bc := BroadcastByte(0xaa)
	// Full range, single-slot ranges at both ends, and a word-straddling one.
	if got := Match48Range(&fps, bc, 0, 48); got != 1<<48-1 {
		t.Errorf("full range = %#x", got)
	}
	if got := Match48Range(&fps, bc, 0, 1); got != 1 {
		t.Errorf("first slot = %#x", got)
	}
	if got := Match48Range(&fps, bc, 47, 48); got != 1<<47 {
		t.Errorf("last slot = %#x", got)
	}
	if got := Match48Range(&fps, bc, 7, 9); got != 0b11<<7 {
		t.Errorf("straddling range = %#x", got)
	}
	if got := Match48Range(&fps, BroadcastByte(0xbb), 0, 48); got != 0 {
		t.Errorf("no-match = %#x", got)
	}
}

func TestMatch28RangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var lanes [28]uint16
	for trial := 0; trial < 5000; trial++ {
		for i := range lanes {
			lanes[i] = uint16(rng.Intn(1 << 16))
		}
		target := uint16(rng.Intn(1 << 16))
		lanes[rng.Intn(28)] = target
		start := uint(rng.Intn(28))
		end := start + uint(rng.Intn(28-int(start))) + 1
		if end > 28 {
			end = 28
		}
		fps := packLanes16(&lanes)
		bc := BroadcastU16(target)
		want := scalarMatch28(&lanes, target, start, end)
		if got := Match28Range(&fps, bc, start, end); got != want {
			t.Fatalf("Match28Range(%d,%d) = %#x, want %#x", start, end, got, want)
		}
	}
}

func TestMatch28RangeBoundaries(t *testing.T) {
	var lanes [28]uint16
	for i := range lanes {
		lanes[i] = 0x1234
	}
	fps := packLanes16(&lanes)
	bc := BroadcastU16(0x1234)
	if got := Match28Range(&fps, bc, 0, 28); got != 1<<28-1 {
		t.Errorf("full range = %#x", got)
	}
	if got := Match28Range(&fps, bc, 27, 28); got != 1<<27 {
		t.Errorf("last lane = %#x", got)
	}
	if got := Match28Range(&fps, bc, 3, 5); got != 0b11<<3 {
		t.Errorf("straddling = %#x", got)
	}
}
