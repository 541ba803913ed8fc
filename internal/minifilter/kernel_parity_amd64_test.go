//go:build amd64 && !purego

package minifilter

import (
	"math/rand"
	"testing"

	"vqf/internal/bitvec"
	"vqf/internal/swar"
)

// Differential parity gate for the fused assembly probes: over randomly
// filled valid blocks, every (bucket, fingerprint) probe must agree
// bit-for-bit with the generic kernel. Metadata validity is part of the
// kernel contract (see kernel_amd64.go), so blocks are built through the
// real insert path rather than from raw random words.

func fillBlock8(r *rand.Rand, n int) (*Block8, []byte) {
	var b Block8
	b.Reset()
	fps := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		bucket := uint(r.Intn(B8Buckets))
		fp := byte(r.Uint32())
		if !b.Insert(bucket, fp) {
			break
		}
		fps = append(fps, fp)
	}
	return &b, fps
}

func fillBlock16(r *rand.Rand, n int) (*Block16, []uint16) {
	var b Block16
	b.Reset()
	fps := make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		bucket := uint(r.Intn(B16Buckets))
		fp := uint16(r.Uint32())
		if !b.Insert(bucket, fp) {
			break
		}
		fps = append(fps, fp)
	}
	return &b, fps
}

func TestFusedProbe8Parity(t *testing.T) {
	if !AsmSupported() {
		t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
	}
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		b, inserted := fillBlock8(r, r.Intn(B8Slots+1))
		probes := []byte{0, byte(r.Uint32())}
		if len(inserted) > 0 {
			probes = append(probes, inserted[r.Intn(len(inserted))])
		}
		for bucket := uint(0); bucket < B8Buckets; bucket++ {
			for _, fp := range probes {
				bc := swar.BroadcastByte(fp)
				got := fusedProbe8Asm(b.MetaLo, b.MetaHi, &b.Fps, bucket, bc)
				want := probe8Generic(b.MetaLo, b.MetaHi, &b.Fps, bucket, bc)
				if got != want {
					t.Fatalf("probe8 bucket %d fp %#x occ %d: asm %#x generic %#x (lo %#x hi %#x)",
						bucket, fp, b.Occupancy(), got, want, b.MetaLo, b.MetaHi)
				}
			}
		}
	}
}

func TestFusedProbe16Parity(t *testing.T) {
	if !AsmSupported() {
		t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
	}
	r := rand.New(rand.NewSource(12))
	for iter := 0; iter < 400; iter++ {
		b, inserted := fillBlock16(r, r.Intn(B16Slots+1))
		probes := []uint16{0, uint16(r.Uint32())}
		if len(inserted) > 0 {
			probes = append(probes, inserted[r.Intn(len(inserted))])
		}
		for bucket := uint(0); bucket < B16Buckets; bucket++ {
			for _, fp := range probes {
				bc := swar.BroadcastU16(fp)
				got := fusedProbe16Asm(b.Meta, &b.Fps, bucket, bc)
				want := probe16Generic(b.Meta, &b.Fps, bucket, bc)
				if got != want {
					t.Fatalf("probe16 bucket %d fp %#x occ %d: asm %#x generic %#x (meta %#x)",
						bucket, fp, b.Occupancy(), got, want, b.Meta)
				}
			}
		}
	}
}

// TestFusedProbeLockedForm exercises the locked-mode metadata form (top bit
// forced) that the locked and optimistic callers feed the kernels: parity
// must hold for it as well, including on a completely full block where the
// forced bit is the real 80th (resp. 36th) terminator.
func TestFusedProbeLockedForm(t *testing.T) {
	if !AsmSupported() {
		t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
	}
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, B8Slots / 2, B8Slots} {
		b, _ := fillBlock8(r, n)
		lo, hi := b.MetaLo, b.MetaHi|1<<63
		for bucket := uint(0); bucket < B8Buckets; bucket++ {
			bc := swar.BroadcastByte(byte(bucket))
			if got, want := fusedProbe8Asm(lo, hi, &b.Fps, bucket, bc), probe8Generic(lo, hi, &b.Fps, bucket, bc); got != want {
				t.Fatalf("locked probe8 n %d bucket %d: asm %#x generic %#x", n, bucket, got, want)
			}
		}
	}
	for _, n := range []int{0, 1, B16Slots / 2, B16Slots} {
		b, _ := fillBlock16(r, n)
		meta := b.Meta | 1<<63
		for bucket := uint(0); bucket < B16Buckets; bucket++ {
			bc := swar.BroadcastU16(uint16(bucket))
			if got, want := fusedProbe16Asm(meta, &b.Fps, bucket, bc), probe16Generic(meta, &b.Fps, bucket, bc); got != want {
				t.Fatalf("locked probe16 n %d bucket %d: asm %#x generic %#x", n, bucket, got, want)
			}
		}
	}
}

// FuzzFusedProbeParity is the fuzz form of the probe parity gate: arbitrary
// insert sequences (bucket, fingerprint pairs drawn from the corpus bytes)
// build a valid block, then every bucket is probed with both kernels.
func FuzzFusedProbeParity(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1}, uint16(0))
	f.Add([]byte("fuzzing builds character and valid metadata"), uint16(0x2a2a))
	f.Fuzz(func(t *testing.T, ops []byte, fp uint16) {
		if !AsmSupported() {
			t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
		}
		var b8 Block8
		b8.Reset()
		var b16 Block16
		b16.Reset()
		for i := 0; i+1 < len(ops); i += 2 {
			b8.Insert(uint(ops[i])%B8Buckets, ops[i+1])
			b16.Insert(uint(ops[i])%B16Buckets, uint16(ops[i+1])|uint16(ops[i])<<8)
		}
		bc8 := swar.BroadcastByte(byte(fp))
		bc16 := swar.BroadcastU16(fp)
		for bucket := uint(0); bucket < B8Buckets; bucket++ {
			got := fusedProbe8Asm(b8.MetaLo, b8.MetaHi, &b8.Fps, bucket, bc8)
			want := probe8Generic(b8.MetaLo, b8.MetaHi, &b8.Fps, bucket, bc8)
			if got != want {
				t.Errorf("probe8 bucket %d: asm %#x generic %#x", bucket, got, want)
			}
		}
		for bucket := uint(0); bucket < B16Buckets; bucket++ {
			got := fusedProbe16Asm(b16.Meta, &b16.Fps, bucket, bc16)
			want := probe16Generic(b16.Meta, &b16.Fps, bucket, bc16)
			if got != want {
				t.Errorf("probe16 bucket %d: asm %#x generic %#x", bucket, got, want)
			}
		}
	})
}

// Differential parity gate for the fused write kernels: every insert and
// remove through insert8Asm/insert16Asm and remove8Asm/remove16Asm must
// return the same metadata words and slot as the generic bodies — what
// insertSlot*/removeSlot* run with the assembly switched off — and leave
// bit-identical lanes.

func checkInsert8(t *testing.T, lo, hi uint64, fps [swar.Words8]uint64, bucket uint, fp byte) {
	t.Helper()
	a, g := fps, fps
	aLo, aHi, aZ := insert8Asm(lo, hi, &a, bucket, fp)
	gLo, gHi, gZ := insertSlot8Generic(lo, hi, &g, bucket, fp)
	if aLo != gLo || aHi != gHi || aZ != gZ || a != g {
		t.Fatalf("insert8 bucket %d fp %#x (lo %#x hi %#x): asm (%#x %#x z %d %#x), generic (%#x %#x z %d %#x)",
			bucket, fp, lo, hi, aLo, aHi, aZ, a, gLo, gHi, gZ, g)
	}
}

func checkRemove8(t *testing.T, lo, hiSel, hiLog uint64, fps [swar.Words8]uint64, bucket uint, fp byte) int {
	t.Helper()
	a, g := fps, fps
	bc := swar.BroadcastByte(fp)
	aLo, aHi, aZ := remove8Asm(lo, hiSel, hiLog, &a, bucket, bc)
	gLo, gHi, gZ := removeSlot8Generic(lo, hiSel, hiLog, &g, bucket, bc)
	if aLo != gLo || aHi != gHi || aZ != gZ || a != g {
		t.Fatalf("remove8 bucket %d fp %#x (lo %#x hiSel %#x hiLog %#x): asm (%#x %#x z %d %#x), generic (%#x %#x z %d %#x)",
			bucket, fp, lo, hiSel, hiLog, aLo, aHi, aZ, a, gLo, gHi, gZ, g)
	}
	return gZ
}

func checkInsert16(t *testing.T, meta uint64, fps [swar.Words16]uint64, bucket uint, fp uint16) {
	t.Helper()
	a, g := fps, fps
	aMeta, aZ := insert16Asm(meta, &a, bucket, fp)
	gMeta, gZ := insertSlot16Generic(meta, &g, bucket, fp)
	if aMeta != gMeta || aZ != gZ || a != g {
		t.Fatalf("insert16 bucket %d fp %#x (meta %#x): asm (%#x z %d %#x), generic (%#x z %d %#x)",
			bucket, fp, meta, aMeta, aZ, a, gMeta, gZ, g)
	}
}

func checkRemove16(t *testing.T, metaSel, metaLog uint64, fps [swar.Words16]uint64, bucket uint, fp uint16) int {
	t.Helper()
	a, g := fps, fps
	bc := swar.BroadcastU16(fp)
	aMeta, aZ := remove16Asm(metaSel, metaLog, &a, bucket, bc)
	gMeta, gZ := removeSlot16Generic(metaSel, metaLog, &g, bucket, bc)
	if aMeta != gMeta || aZ != gZ || a != g {
		t.Fatalf("remove16 bucket %d fp %#x (sel %#x log %#x): asm (%#x z %d %#x), generic (%#x z %d %#x)",
			bucket, fp, metaSel, metaLog, aMeta, aZ, a, gMeta, gZ, g)
	}
	return gZ
}

// absentIn returns the smallest value the lanes [start, end) of lane do not
// hold, so a remove of it must miss.
func absentIn[T byte | uint16](lane func(int) T, start, end uint) T {
	for v := T(0); ; v++ {
		found := false
		for s := start; s < end; s++ {
			found = found || lane(int(s)) == v
		}
		if !found {
			return v
		}
	}
}

// TestWriteKernel8Parity runs every bucket of random blocks at every
// occupancy through both write kernels: an insert of a random fingerprint,
// and a remove of every fingerprint the bucket holds plus one it does not,
// each in the plain form and in the locked form (top bit forced for the
// select, the plain word as the arithmetic form). It also requires the
// sweep to have hit the edges the branch-free code must get right.
func TestWriteKernel8Parity(t *testing.T) {
	if !AsmSupported() {
		t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
	}
	r := rand.New(rand.NewSource(14))
	edges := map[string]bool{}
	for occ := 0; occ <= B8Slots; occ++ {
		for iter := 0; iter < 6; iter++ {
			b, _ := fillBlock8(r, occ)
			lo, hi := b.MetaLo, b.MetaHi
			for bucket := uint(0); bucket < B8Buckets; bucket++ {
				if occ < B8Slots {
					m := bitvec.Select128(lo, hi, bucket)
					edges["insert bucket 0"] = edges["insert bucket 0"] || bucket == 0
					edges["insert last bucket"] = edges["insert last bucket"] || bucket == B8Buckets-1
					edges["insert select 63"] = edges["insert select 63"] || m == 63
					edges["insert select 64"] = edges["insert select 64"] || m == 64
					edges["insert z 0"] = edges["insert z 0"] || m == bucket
					edges["insert z occupancy"] = edges["insert z occupancy"] || m-bucket == uint(occ) && occ > 0
					edges["insert one short of full"] = edges["insert one short of full"] || occ == B8Slots-1
					fp := byte(r.Uint32())
					checkInsert8(t, lo, hi, b.Fps, bucket, fp)
					checkInsert8(t, lo, hi|lockBit, b.Fps, bucket, fp)
				}
				start, end := b.bucketRange(bucket)
				lane := func(i int) byte { return b.Lane(i) }
				for s := start; s <= end; s++ {
					fp := absentIn(lane, start, end)
					if s < end {
						fp = b.Lane(int(s))
					}
					z := checkRemove8(t, lo, hi, hi, b.Fps, bucket, fp)
					checkRemove8(t, lo, hi|lockBit, hi, b.Fps, bucket, fp)
					if z >= 0 {
						p := uint(z) + bucket
						edges["remove bit 63"] = edges["remove bit 63"] || p == 63
						edges["remove bit 64"] = edges["remove bit 64"] || p == 64
						edges["remove z 0"] = edges["remove z 0"] || z == 0
						edges["remove last slot"] = edges["remove last slot"] || z == occ-1
						edges["remove from full"] = edges["remove from full"] || occ == B8Slots
					}
				}
			}
		}
	}
	requireEdges(t, edges, 12)
}

// TestWriteKernel16Parity is TestWriteKernel8Parity for Block16, whose
// 64-bit select has no word boundary; its top edge is the final
// terminator reaching bit 63.
func TestWriteKernel16Parity(t *testing.T) {
	if !AsmSupported() {
		t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
	}
	r := rand.New(rand.NewSource(15))
	edges := map[string]bool{}
	for occ := 0; occ <= B16Slots; occ++ {
		for iter := 0; iter < 10; iter++ {
			b, _ := fillBlock16(r, occ)
			meta := b.Meta
			for bucket := uint(0); bucket < B16Buckets; bucket++ {
				if occ < B16Slots {
					m := bitvec.Select64(meta, bucket)
					edges["insert bucket 0"] = edges["insert bucket 0"] || bucket == 0
					edges["insert last bucket"] = edges["insert last bucket"] || bucket == B16Buckets-1
					edges["insert z 0"] = edges["insert z 0"] || m == bucket
					edges["insert z occupancy"] = edges["insert z occupancy"] || m-bucket == uint(occ) && occ > 0
					edges["insert one short of full"] = edges["insert one short of full"] || occ == B16Slots-1
					fp := uint16(r.Uint32())
					checkInsert16(t, meta, b.Fps, bucket, fp)
					checkInsert16(t, meta|lockBit, b.Fps, bucket, fp)
				}
				start, end := b.bucketRange(bucket)
				lane := func(i int) uint16 { return b.Lane(i) }
				for s := start; s <= end; s++ {
					fp := absentIn(lane, start, end)
					if s < end {
						fp = b.Lane(int(s))
					}
					z := checkRemove16(t, meta, meta, b.Fps, bucket, fp)
					checkRemove16(t, meta|lockBit, meta, b.Fps, bucket, fp)
					if z >= 0 {
						edges["remove z 0"] = edges["remove z 0"] || z == 0
						edges["remove last slot"] = edges["remove last slot"] || z == occ-1
						edges["remove from full"] = edges["remove from full"] || occ == B16Slots
						edges["remove bit 62"] = edges["remove bit 62"] || uint(z)+bucket == 62
					}
				}
			}
		}
	}
	requireEdges(t, edges, 9)
}

func requireEdges(t *testing.T, edges map[string]bool, want int) {
	t.Helper()
	if len(edges) != want {
		t.Fatalf("edge table has %d entries, want %d", len(edges), want)
	}
	for name, hit := range edges {
		if !hit {
			t.Errorf("sweep never hit edge %q", name)
		}
	}
}

// validMeta builds valid block metadata from arbitrary bits: the first
// buckets+occ bits follow raw (LSB first, lo then hi), except that a bit is
// forced once one kind has run out, and the last is always the final
// terminator, so the result holds exactly buckets terminators and occ
// fingerprint zeros below the last one, with nothing above it.
func validMeta(raw [2]uint64, buckets, occ int) (w [2]uint64) {
	ones, zeros := 0, 0
	for i := 0; ones < buckets; i++ {
		one := raw[i/64]>>(i%64)&1 == 1
		switch {
		case zeros == occ:
			one = true
		case ones == buckets-1:
			one = false
		}
		if one {
			w[i/64] |= 1 << (i % 64)
			ones++
		} else {
			zeros++
		}
	}
	return w
}

// FuzzWriteKernelParity holds the write kernels to the generic bodies on
// arbitrary valid blocks: raw metadata bits and lane bytes from the corpus,
// normalised by validMeta, an occupancy, a bucket and a fingerprint. Each
// block takes an insert (unless full) and two removes — of fp, and of the
// fingerprint in the lane fp picks, usually a hit — in plain and locked
// form.
func FuzzWriteKernelParity(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte{1, 2, 3}, uint8(0), uint8(0), uint16(0))
	f.Add(^uint64(0), ^uint64(0), []byte("lanes"), uint8(47), uint8(79), uint16(7))
	f.Add(uint64(0x5555555555555555), uint64(0xaaaa), []byte{9}, uint8(48), uint8(63), uint16(0x0909))
	f.Add(uint64(0x8000000000000000), uint64(1), []byte{}, uint8(27), uint8(35), uint16(1))
	f.Fuzz(func(t *testing.T, rawLo, rawHi uint64, lanes []byte, occ, bucket uint8, fp uint16) {
		if !AsmSupported() {
			t.Skip("CPU lacks PDEP/TZCNT/POPCNT")
		}
		laneByte := func(i int) byte {
			if len(lanes) == 0 {
				return byte(i)
			}
			return lanes[i%len(lanes)]
		}

		occ8 := int(occ) % (B8Slots + 1)
		m8 := validMeta([2]uint64{rawLo, rawHi}, B8Buckets, occ8)
		var fps8 [swar.Words8]uint64
		for i := 0; i < occ8; i++ {
			fps8[i/8] |= uint64(laneByte(i)) << (8 * (i % 8))
		}
		lo, hi := m8[0], m8[1]
		b8 := uint(bucket) % B8Buckets
		if occ8 < B8Slots {
			checkInsert8(t, lo, hi, fps8, b8, byte(fp))
			checkInsert8(t, lo, hi|lockBit, fps8, b8, byte(fp))
		}
		for _, v := range []byte{byte(fp), byte(fps8[int(fp)%6] >> (8 * (fp >> 8 % 8)))} {
			checkRemove8(t, lo, hi, hi, fps8, b8, v)
			checkRemove8(t, lo, hi|lockBit, hi, fps8, b8, v)
		}

		occ16 := int(occ) % (B16Slots + 1)
		meta := validMeta([2]uint64{rawLo}, B16Buckets, occ16)[0]
		var fps16 [swar.Words16]uint64
		for i := 0; i < occ16; i++ {
			v := uint64(laneByte(2*i)) | uint64(laneByte(2*i+1))<<8
			fps16[i/4] |= v << (16 * (i % 4))
		}
		b16 := uint(bucket) % B16Buckets
		if occ16 < B16Slots {
			checkInsert16(t, meta, fps16, b16, fp)
			checkInsert16(t, meta|lockBit, fps16, b16, fp)
		}
		for _, v := range []uint16{fp, uint16(fps16[int(fp)%7] >> (16 * (fp >> 8 % 4)))} {
			checkRemove16(t, meta, meta, fps16, b16, v)
			checkRemove16(t, meta|lockBit, meta, fps16, b16, v)
		}
	})
}
