// Package fuse implements static 3-wise binary fuse filters ("Binary Fuse
// Filters: Fast and Smaller Than Xor Filters", Graf & Lemire), the immutable
// cold tier behind the elastic cascade's frozen levels. A filter is built
// once from a complete key set and answers Contains forever after with a
// single fingerprint comparison against the xor of three array cells; there
// is no insert, no remove, and no per-slot metadata, which is what brings
// the space overhead down to ≈1.13·w bits per key at fingerprint width w
// against the VQF's w/α + metadata.
//
// Keys are opaque 64-bit values (the elastic tier feeds canonical VQF hashes
// through here; see internal/core/iterate.go). Duplicate keys cannot be
// represented — Build deduplicates defensively after repeated peeling
// failures, but callers that track multiplicities must do so outside the
// filter.
package fuse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"vqf/internal/hashing"
)

// ErrBuildFailed reports that peeling failed for every attempted seed. With
// deduplicated keys the per-attempt failure probability is well under 1%, so
// hitting the attempt cap in practice means the key slice is pathological
// (e.g. adversarially constructed against the mixer).
var ErrBuildFailed = errors.New("fuse: build failed to find a peelable seed")

// maxBuildIterations bounds the reseed-and-retry loop; dedupeAtIteration is
// when a stubborn build sorts and deduplicates its private key copy (the
// reference implementations' remedy for the overwhelmingly common cause of
// repeated failure).
const (
	maxBuildIterations = 100
	dedupeAtIteration  = 10
)

// Filter is a static binary fuse filter with w-bit fingerprints, w ∈ {8, 16}
// (FPR ≈ 2⁻ʷ). The width is a value, not a type: the fingerprint array is
// kept as its little-endian byte image, and every cell access reads a
// 16-bit word at cell·(w/8) bytes masked to w bits, so one branch-free probe
// serves both widths and the array serializes as it sits in memory. One pad
// byte past the array keeps the last 8-bit cell's word load in bounds.
//
// The segment layout follows the paper: the array is segmentCount+2
// segments of segmentLength cells, a key's first cell index lands uniformly
// in the first segmentCount segments, and its other two cells sit in the
// following two segments at xor-perturbed offsets — the locality that makes
// the 3-cell probe touch three nearby-ish cache lines instead of three
// random ones.
type Filter struct {
	seed               uint64
	segmentLength      uint32
	segmentLengthMask  uint32
	segmentCount       uint32
	segmentCountLength uint32
	bits               uint8  // fingerprint width w
	shift              uint8  // log₂ of the bytes per cell
	mask               uint16 // 2ʷ − 1
	cells              []byte // arrayLength cells of w/8 bytes each, plus the pad byte
	keys               uint64 // distinct keys built in
}

// WidthFor returns the narrowest fingerprint width whose false-positive rate
// 2⁻ʷ meets fpr; ok is false when fpr is below 2⁻¹⁶, which no width meets.
func WidthFor(fpr float64) (bits uint8, ok bool) {
	switch {
	case fpr >= 1.0/256:
		return 8, true
	case fpr >= 1.0/65536:
		return 16, true
	}
	return 0, false
}

// newFilter returns an empty filter of width bits.
func newFilter(bits uint8) *Filter {
	return &Filter{bits: bits, shift: bits / 16, mask: uint16(1)<<bits - 1}
}

// calcSegmentLength is the paper's tuning for 3-wise fuse graphs, capped so
// one segment stays comfortably inside L2.
func calcSegmentLength(size uint32) uint32 {
	if size == 0 {
		return 4
	}
	sl := uint32(1) << uint(math.Floor(math.Log(float64(size))/math.Log(3.33)+2.25))
	if sl < 1 {
		sl = 1
	}
	if sl > 262144 {
		sl = 262144
	}
	return sl
}

// calcSizeFactor is the paper's array-size multiplier: asymptotically 1.125,
// larger for small filters where peeling needs more slack.
func calcSizeFactor(size uint32) float64 {
	if size < 2 {
		return 2
	}
	return math.Max(1.125, 0.875+0.25*math.Log(1e6)/math.Log(float64(size)))
}

// layout initializes the segment geometry for size keys and allocates the
// fingerprint array.
func (f *Filter) layout(size uint32) {
	f.segmentLength = calcSegmentLength(size)
	f.segmentLengthMask = f.segmentLength - 1
	capacity := uint32(math.Round(float64(size) * calcSizeFactor(size)))
	initCount := (capacity+f.segmentLength-1)/f.segmentLength - 2
	arrayLength := (initCount + 2) * f.segmentLength
	segmentCount := (arrayLength + f.segmentLength - 1) / f.segmentLength
	if segmentCount <= 2 {
		segmentCount = 1
	} else {
		segmentCount -= 2
	}
	arrayLength = (segmentCount + 2) * f.segmentLength
	f.segmentCount = segmentCount
	f.segmentCountLength = segmentCount * f.segmentLength
	f.alloc(uint64(arrayLength))
}

// alloc allocates a zeroed array of n cells.
func (f *Filter) alloc(n uint64) {
	f.cells = make([]byte, uint(n)<<f.shift+1)
}

// arrayBytes returns the byte length of the fingerprint array, without the
// pad byte.
func (f *Filter) arrayBytes() int { return len(f.cells) - 1 }

// cell returns the fingerprint in cell i, in the low w bits (for w = 8 the
// high byte holds the next cell). The shift is masked so the compiler can
// drop its out-of-range check.
func (f *Filter) cell(i uint32) uint16 {
	off := uint(i) << (f.shift & 1)
	c := f.cells
	_ = c[off+1]
	return uint16(c[off]) | uint16(c[off+1])<<8
}

// setCell stores the low w bits of v in cell i, leaving any neighbouring
// cell that shares the word untouched.
func (f *Filter) setCell(i uint32, v uint16) {
	off := uint(i) << (f.shift & 1)
	w := f.cell(i)&^f.mask | v&f.mask
	f.cells[off], f.cells[off+1] = byte(w), byte(w>>8)
}

// cellsOf derives a key hash's three cell indices: the high word of
// hash·segmentCountLength picks the base segment, the next two segments get
// xor-perturbed offsets from independent hash bits.
func (f *Filter) cellsOf(hash uint64) (h0, h1, h2 uint32) {
	hi, _ := bits.Mul64(hash, uint64(f.segmentCountLength))
	h0 = uint32(hi)
	h1 = h0 + f.segmentLength
	h2 = h1 + f.segmentLength
	h1 ^= uint32(hash>>18) & f.segmentLengthMask
	h2 ^= uint32(hash) & f.segmentLengthMask
	return
}

// fingerprintOf returns a mixed key hash's fingerprint; only its low w bits
// are stored or compared.
func fingerprintOf(hash uint64) uint16 {
	return uint16(hash ^ (hash >> 32))
}

// Contains reports whether k may be in the set: always true for built-in
// keys, true with probability ≈2⁻ʷ otherwise. An empty filter answers false
// outright — its all-zero array would otherwise match the ~2⁻ʷ of keys whose
// fingerprint is zero. Safe for concurrent use (the filter is immutable).
func (f *Filter) Contains(k uint64) bool {
	if f.keys == 0 {
		return false
	}
	hash := hashing.Mix64Seeded(k, f.seed)
	h0, h1, h2 := f.cellsOf(hash)
	return (fingerprintOf(hash)^f.cell(h0)^f.cell(h1)^f.cell(h2))&f.mask == 0
}

// batchTile is the working-set size of the two-pass batched probe: hashes
// are mixed for a whole tile first, then the probe loop runs with the mixer
// out of the way — the same split-the-dependency-chain discipline as the
// core filters' radix-batched sweeps, with the tile small enough to live on
// the stack so steady-state batches allocate nothing.
const batchTile = 256

// ContainsBatch answers membership for every key of ks in input order,
// reusing dst when it has capacity (dst may be nil). Safe for concurrent use.
func (f *Filter) ContainsBatch(ks []uint64, dst []bool) []bool {
	if cap(dst) < len(ks) {
		dst = make([]bool, len(ks))
	}
	out := dst[:len(ks)]
	if f.keys == 0 {
		for i := range out {
			out[i] = false
		}
		return out
	}
	var hashes [batchTile]uint64
	for base := 0; base < len(ks); base += batchTile {
		n := len(ks) - base
		if n > batchTile {
			n = batchTile
		}
		for i := 0; i < n; i++ {
			hashes[i] = hashing.Mix64Seeded(ks[base+i], f.seed)
		}
		// The probe is cellsOf and cell written out over locals: through
		// f, every store to out would force the layout fields to be
		// reloaded, and the spills cost the loop its memory-level
		// parallelism.
		c, sh, m := f.cells, f.shift&1, f.mask
		scl, sl, slm := uint64(f.segmentCountLength), f.segmentLength, f.segmentLengthMask
		o := out[base : base+n]
		for i, hash := range hashes[:n] {
			hi, _ := bits.Mul64(hash, scl)
			h0 := uint32(hi)
			h1 := (h0 + sl) ^ uint32(hash>>18)&slm
			h2 := (h0 + 2*sl) ^ uint32(hash)&slm
			o0, o1, o2 := uint(h0)<<sh, uint(h1)<<sh, uint(h2)<<sh
			_, _, _ = c[o0+1], c[o1+1], c[o2+1]
			x := uint16(c[o0]) | uint16(c[o0+1])<<8
			x ^= uint16(c[o1]) | uint16(c[o1+1])<<8
			x ^= uint16(c[o2]) | uint16(c[o2+1])<<8
			o[i] = (fingerprintOf(hash)^x)&m == 0
		}
	}
	return out
}

// buildSeed is the deterministic per-attempt seed schedule. Builds must be
// reproducible (serialized filters round-trip byte-identically), so the
// schedule is a fixed mixer walk rather than a random source.
func buildSeed(iteration int) uint64 {
	return hashing.Mix64(uint64(iteration+1) * 0x9e3779b97f4a7c15)
}

// populate runs the peeling construction: count and xor-aggregate every
// key's hash into its three cells, repeatedly peel cells holding exactly one
// key, then assign fingerprints in reverse peel order so each key's xor
// identity holds. On a failed peel it reseeds and retries; at
// dedupeAtIteration it deduplicates a private copy of the keys.
func (f *Filter) populate(keys []uint64) error {
	if len(keys) == 0 {
		f.keys = 0
		return nil
	}
	size := uint32(len(keys))
	f.layout(size)
	capacity := f.segmentCountLength + 2*f.segmentLength

	alone := make([]uint32, capacity)
	// t2count packs a cell's key count (high 6 bits) with the xor of the
	// cell-role indices (0/1/2) of those keys: when the count drops to one,
	// the low bits name which of the remaining key's three cells this is.
	t2count := make([]uint8, capacity)
	t2hash := make([]uint64, capacity)
	reverseOrder := make([]uint64, size+1)
	reverseH := make([]uint8, size)

	deduped := false
	for iteration := 0; ; iteration++ {
		if iteration == maxBuildIterations {
			return ErrBuildFailed
		}
		if iteration == dedupeAtIteration && !deduped {
			keys = dedupe(keys)
			size = uint32(len(keys))
			f.keys = 0
			f.layout(size)
			capacity = f.segmentCountLength + 2*f.segmentLength
			alone = make([]uint32, capacity)
			t2count = make([]uint8, capacity)
			t2hash = make([]uint64, capacity)
			reverseOrder = make([]uint64, size+1)
			reverseH = make([]uint8, size)
			deduped = true
		}
		f.seed = buildSeed(iteration)

		overflow := false
		for _, k := range keys {
			hash := hashing.Mix64Seeded(k, f.seed)
			h0, h1, h2 := f.cellsOf(hash)
			t2count[h0] += 4
			t2hash[h0] ^= hash
			t2count[h1] += 4
			t2count[h1] ^= 1
			t2hash[h1] ^= hash
			t2count[h2] += 4
			t2count[h2] ^= 2
			t2hash[h2] ^= hash
			// 64+ keys in one cell wraps the packed count; only massive key
			// duplication gets there. Abort to the dedupe/retry path rather
			// than corrupt the counts.
			if t2count[h0] < 4 || t2count[h1] < 4 || t2count[h2] < 4 {
				overflow = true
				break
			}
		}

		stacksize := uint32(0)
		if !overflow {
			alonePos := 0
			for i := uint32(0); i < capacity; i++ {
				if t2count[i]>>2 == 1 {
					alone[alonePos] = i
					alonePos++
				}
			}
			for alonePos > 0 {
				alonePos--
				index := alone[alonePos]
				if t2count[index]>>2 != 1 {
					continue
				}
				hash := t2hash[index]
				found := t2count[index] & 3
				reverseH[stacksize] = found
				reverseOrder[stacksize] = hash
				stacksize++
				h0, h1, h2 := f.cellsOf(hash)
				cellAt := [5]uint32{h0, h1, h2, h0, h1}
				for off := uint8(1); off <= 2; off++ {
					other := cellAt[found+off]
					role := found + off
					if role >= 3 {
						role -= 3
					}
					t2count[other] -= 4
					t2count[other] ^= role
					t2hash[other] ^= hash
					if t2count[other]>>2 == 1 {
						alone[alonePos] = other
						alonePos++
					}
				}
			}
		}

		if stacksize == size {
			// Full peel: assign fingerprints newest-peeled first, so the two
			// cells each key shares with later-peeled keys are final when its
			// own cell is written.
			for i := int(size) - 1; i >= 0; i-- {
				hash := reverseOrder[i]
				h0, h1, h2 := f.cellsOf(hash)
				found := reverseH[i]
				cellAt := [5]uint32{h0, h1, h2, h0, h1}
				f.setCell(cellAt[found], fingerprintOf(hash)^f.cell(cellAt[found+1])^f.cell(cellAt[found+2]))
			}
			f.keys = uint64(size)
			return nil
		}

		for i := range t2count {
			t2count[i] = 0
			t2hash[i] = 0
		}
	}
}

// dedupe returns a sorted copy of keys with duplicates removed; the caller's
// slice is left untouched.
func dedupe(keys []uint64) []uint64 {
	cp := append([]uint64(nil), keys...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:0]
	for i, k := range cp {
		if i == 0 || k != cp[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// Build constructs a filter with bits-bit fingerprints (8 or 16) over keys
// (order-insensitive; the slice is not retained). Duplicate keys are
// tolerated but collapse to one membership entry.
func Build(keys []uint64, bits uint8) (*Filter, error) {
	if bits != 8 && bits != 16 {
		return nil, fmt.Errorf("fuse: fingerprint width %d", bits)
	}
	f := newFilter(bits)
	if err := f.populate(keys); err != nil {
		return nil, err
	}
	return f, nil
}

// Bits returns the fingerprint width w.
func (f *Filter) Bits() uint8 { return f.bits }

// FPR returns the analytic false-positive rate 2⁻ʷ.
func (f *Filter) FPR() float64 { return math.Ldexp(1, -int(f.bits)) }

// Keys returns the number of distinct keys the filter was built over.
func (f *Filter) Keys() uint64 { return f.keys }

// SizeBytes returns the fingerprint array's footprint.
func (f *Filter) SizeBytes() uint64 {
	if f.keys == 0 {
		return 0
	}
	return uint64(f.arrayBytes())
}

// BitsPerKey returns the realized space cost, ≈1.13·w for a large filter.
func (f *Filter) BitsPerKey() float64 { return bitsPerKey(f.SizeBytes(), f.keys) }

func bitsPerKey(sizeBytes, keys uint64) float64 {
	if keys == 0 {
		return 0
	}
	return float64(sizeBytes) * 8 / float64(keys)
}

// Serialization: a fixed header followed by the fingerprint array in
// little-endian cell order. The geometry fields are audited on read so a
// corrupt or adversarial stream fails cleanly.
const (
	magicFuse       = 0x46465156 // "VQFF"
	fuseVersion     = 1
	fuseHeaderBytes = 4 + 2 + 2 + 8 + 4 + 4 + 8 // magic, version, fpBits, seed, segLen, segCount, keys
	maxArrayLength  = 1 << 32
)

// WriteTo serializes the filter; it implements io.WriterTo.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	var hdr [fuseHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicFuse)
	binary.LittleEndian.PutUint16(hdr[4:], fuseVersion)
	binary.LittleEndian.PutUint16(hdr[6:], uint16(f.bits))
	binary.LittleEndian.PutUint64(hdr[8:], f.seed)
	binary.LittleEndian.PutUint32(hdr[16:], f.segmentLength)
	binary.LittleEndian.PutUint32(hdr[20:], f.segmentCount)
	binary.LittleEndian.PutUint64(hdr[24:], f.keys)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n := int64(len(hdr))
	if f.keys == 0 {
		return n, nil
	}
	m, err := w.Write(f.cells[:f.arrayBytes()])
	return n + int64(m), err
}

// Read deserializes a filter written by WriteTo, which must hold
// bits-bit fingerprints.
func Read(r io.Reader, bits uint8) (*Filter, error) {
	var hdr [fuseHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("fuse: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicFuse {
		return nil, errors.New("fuse: bad magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != fuseVersion {
		return nil, fmt.Errorf("fuse: unsupported version %d", v)
	}
	if got := binary.LittleEndian.Uint16(hdr[6:]); got != uint16(bits) || (bits != 8 && bits != 16) {
		return nil, fmt.Errorf("fuse: fingerprint width %d, want %d", got, bits)
	}
	f := newFilter(bits)
	f.seed = binary.LittleEndian.Uint64(hdr[8:])
	f.segmentLength = binary.LittleEndian.Uint32(hdr[16:])
	f.segmentCount = binary.LittleEndian.Uint32(hdr[20:])
	f.keys = binary.LittleEndian.Uint64(hdr[24:])
	if f.keys == 0 {
		return f, nil
	}
	if f.segmentLength == 0 || f.segmentLength&(f.segmentLength-1) != 0 || f.segmentLength > 262144 {
		return nil, fmt.Errorf("fuse: segment length %d", f.segmentLength)
	}
	if f.segmentCount == 0 {
		return nil, errors.New("fuse: zero segment count")
	}
	arrayLength := (uint64(f.segmentCount) + 2) * uint64(f.segmentLength)
	if arrayLength > maxArrayLength {
		return nil, fmt.Errorf("fuse: array length %d exceeds cap", arrayLength)
	}
	if f.keys > arrayLength {
		return nil, fmt.Errorf("fuse: %d keys exceed array length %d", f.keys, arrayLength)
	}
	f.segmentLengthMask = f.segmentLength - 1
	f.segmentCountLength = f.segmentCount * f.segmentLength
	f.alloc(arrayLength)
	if _, err := io.ReadFull(r, f.cells[:f.arrayBytes()]); err != nil {
		return nil, fmt.Errorf("fuse: short fingerprint array: %w", err)
	}
	return f, nil
}
