package swar

// Match48Range compares the byte lanes [start, end) of the word-native
// fingerprint array against the pre-broadcast target, returning a bitmask
// with bit i set iff lane i is in the range and matches — the VPCMPB analog
// restricted to one bucket's run. Only the words overlapping the range are
// compared: bucket runs are short — at 85% load roughly half are empty
// (early-out) and the rest almost always fit one word — so skipping the
// other five words' compares beats a branch-free full scan in scalar code.
// It is the portable body of internal/minifilter's probe, which runs a
// fused assembly kernel instead where one exists.
func Match48Range(fps *[Words8]uint64, bcast uint64, start, end uint) uint64 {
	if start >= end {
		return 0
	}
	w0, w1 := start>>3, (end-1)>>3
	var mask uint64
	// The w < Words8 condition both clamps an out-of-contract end and lets
	// the compiler prove fps[w] in bounds (no check in the loop body).
	for w := w0; w < Words8 && w <= w1; w++ {
		mask |= matchBytesB(fps[w], bcast) << (8 * w)
	}
	return mask & RangeMask(start, end)
}

// Match28Range is Match48Range for the 28 uint16 lanes.
func Match28Range(fps *[Words16]uint64, bcast uint64, start, end uint) uint64 {
	if start >= end {
		return 0
	}
	w0, w1 := start>>2, (end-1)>>2
	var mask uint64
	for w := w0; w < Words16 && w <= w1; w++ {
		mask |= matchU16B(fps[w], bcast) << (4 * w)
	}
	return mask & RangeMask(start, end)
}
