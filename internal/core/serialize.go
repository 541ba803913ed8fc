package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"vqf/internal/minifilter"
)

// Binary serialization. The format is a little-endian header (magic,
// version, geometry, options, count) followed by the raw block array.
// Filters can be built offline and shipped alongside the data they
// summarize — the way storage systems persist SSTable filters.
//
// Both block types are eight little-endian uint64 words on disk, in field
// order: MetaLo, MetaHi, Fps[0..5] for Block8 and Meta, Fps[0..6] for
// Block16. Word-native fingerprint lanes are little-endian within each
// word, so this is byte-identical to the historical per-lane layout. One
// codec (writeStream/readStream) therefore serves every filter type.
//
// Concurrent filters serialize to the *same* stream format as their
// sequential counterparts (magic "VQF1"/"VQF2"): the only in-memory
// difference is the locked-mode metadata convention — the stored top bit
// is the lock flag, and a full block's final bucket terminator is implicit
// — so each block is converted to the plain form on the way out and back
// on the way in:
//
//   - write: a quiescent locked-mode block has the lock bit clear; if its
//     remaining metadata carries only 79 (resp. 35) terminators the block is
//     full and the plain form's top bit IS the final terminator, so it is
//     set. Otherwise the forms are bit-identical.
//   - read: a plain block's top bit is set exactly when the block is full;
//     clearing it unconditionally yields the stored locked form.
//
// One format means a filter persisted by a sequential writer can be loaded
// into a concurrent (or sharded) reader and vice versa.
//
// A concurrent filter's WriteTo requires the filter to be quiescent: no
// concurrent writers (a held lock bit is detected and reported as an error,
// but the fingerprint reads are not torn-proof, so "no writers" is the
// caller's contract, not one the encoder can enforce).
//
// A sharded filter serializes as a small sub-header (geometry and shard
// count) followed by each shard's stream in shard order; the envelope kind
// and hash seed live a layer up, in the public package.

const (
	magic8         = 0x31465156 // "VQF1"
	magic16        = 0x32465156 // "VQF2"
	magicKV        = 0x4b465156 // "VQFK"
	serialVersion  = 1
	headerBytes    = 4 + 2 + 2 + 8 + 8 + 8 // magic, version, flags, blocks, count, reserved
	flagNoShortcut = 1 << 0

	shardMagic       = 0x48535156 // "VQSH"
	shardHeaderBytes = 4 + 2 + 2 + 4 + 4

	// Serialized bytes per block for each stream type: the 64-byte block,
	// plus the parallel value bytes for the KV filter.
	blockBytes   = 64
	kvBlockBytes = 64 + minifilter.B8Slots
)

// ErrBadFormat is returned when deserializing data that is not a filter of
// the expected type and version.
var ErrBadFormat = errors.New("core: malformed filter serialization")

func writeHeader(w io.Writer, magic uint32, nblocks, count uint64, opts Options) error {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint16(hdr[4:], serialVersion)
	var flags uint16
	if opts.NoShortcut {
		flags |= flagNoShortcut
	}
	binary.LittleEndian.PutUint16(hdr[6:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], nblocks)
	binary.LittleEndian.PutUint64(hdr[16:], count)
	_, err := w.Write(hdr[:])
	return err
}

// remainingSize returns the number of bytes known to remain in r, or -1
// when r's length cannot be determined cheaply. bytes.Reader, bytes.Buffer
// and strings.Reader report via Len; files and other seekable readers via
// Seek. The hint lets readers reject a forged header whose claimed block
// count exceeds the input before allocating anything for it.
func remainingSize(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case io.Seeker:
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return -1
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return -1
		}
		return end - cur
	}
	return -1
}

func readHeader(r io.Reader, wantMagic uint32, bytesPerBlock, slotsPerBlock uint64) (nblocks, count uint64, opts Options, err error) {
	var hdr [headerBytes]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, opts, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != wantMagic {
		return 0, 0, opts, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != serialVersion {
		return 0, 0, opts, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	// Every flag bit but NoShortcut is unknown. Bit 1 would ask for
	// independent-hash partner blocks, which no filter here probes, so
	// accepting it would turn stored keys into false negatives.
	flags := binary.LittleEndian.Uint16(hdr[6:])
	if flags&^flagNoShortcut != 0 {
		return 0, 0, opts, fmt.Errorf("%w: unknown flags %#x", ErrBadFormat, flags)
	}
	opts.NoShortcut = flags&flagNoShortcut != 0
	nblocks = binary.LittleEndian.Uint64(hdr[8:])
	count = binary.LittleEndian.Uint64(hdr[16:])
	if nblocks < 2 || nblocks&(nblocks-1) != 0 || nblocks > 1<<40 {
		return 0, 0, opts, fmt.Errorf("%w: block count %d not a power of two >= 2", ErrBadFormat, nblocks)
	}
	// A count no block array of this size could hold is a forged header;
	// reject before any allocation (nblocks ≤ 2^40 and slotsPerBlock ≤ 48, so
	// the product cannot overflow).
	if maxCount := nblocks * slotsPerBlock; count > maxCount {
		return 0, 0, opts, fmt.Errorf("%w: count %d exceeds capacity %d of %d blocks",
			ErrBadFormat, count, maxCount, nblocks)
	}
	// With a known input length, a header claiming more blocks than the
	// remaining bytes can hold is rejected up front (nblocks ≤ 2^40 and
	// bytesPerBlock ≤ 112, so the product cannot overflow).
	if hint := remainingSize(r); hint >= 0 && nblocks*bytesPerBlock > uint64(hint) {
		return 0, 0, opts, fmt.Errorf("%w: header claims %d blocks (%d bytes) but only %d bytes remain",
			ErrBadFormat, nblocks, nblocks*bytesPerBlock, hint)
	}
	return nblocks, count, opts, nil
}

// writeStream writes a filter stream: the header, then each block's eight
// words of ws and, for the KV filter, its share of vals. locked converts
// each block from the concurrent filters' locked-mode metadata to the plain
// form (see the file comment).
func writeStream(w io.Writer, magic uint32, g *Geometry, ws []uint64, vals []byte, count uint64, opts Options, locked bool) (int64, error) {
	nblocks := len(ws) / 8
	if err := writeHeader(w, magic, uint64(nblocks), count, opts); err != nil {
		return 0, err
	}
	n := int64(headerBytes)
	per := len(vals) / nblocks
	buf := make([]byte, blockBytes+per)
	for i := 0; i < nblocks; i++ {
		blk := ws[8*i : 8*i+8]
		for j, word := range blk {
			binary.LittleEndian.PutUint64(buf[8*j:], word)
		}
		if last := g.metaWords - 1; locked {
			if blk[last]&minifilter.LockBit != 0 {
				return n, errLockedBlock(i)
			}
			if metaOnes(blk, g) == g.Buckets-1 {
				// Full: the top bit is the final terminator.
				binary.LittleEndian.PutUint64(buf[8*last:], blk[last]|minifilter.LockBit)
			}
		}
		copy(buf[blockBytes:], vals[i*per:(i+1)*per])
		m, err := w.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// readStream reads a stream written by writeStream into a fresh block
// array (and value array, when valsPerBlock > 0), checking the header
// against magic and g, the block count against wantBlocks when that is
// nonzero, and the blocks' plain-form invariants once read.
func readStream[B any](r io.Reader, magic uint32, g *Geometry, wantBlocks uint64, valsPerBlock int) (blocks []B, vals []byte, count uint64, opts Options, err error) {
	nblocks, count, opts, err := readHeader(r, magic, uint64(blockBytes+valsPerBlock), g.Slots)
	if err != nil {
		return nil, nil, 0, opts, err
	}
	if wantBlocks != 0 && nblocks != wantBlocks {
		return nil, nil, 0, opts, fmt.Errorf("%w: stream has %d blocks, declared geometry needs %d",
			ErrBadFormat, nblocks, wantBlocks)
	}
	// Grow the arrays in chunks while reading so a forged header claiming
	// an enormous block count fails on truncated input instead of
	// allocating the claimed size up front.
	const chunk = 1 << 16
	buf := make([]byte, blockBytes+valsPerBlock)
	for uint64(len(blocks)) < nblocks {
		first := len(blocks)
		blocks = append(blocks, make([]B, min(nblocks-uint64(first), chunk))...)
		vals = append(vals, make([]byte, (len(blocks)-first)*valsPerBlock)...)
		ws := words(blocks)
		for i := first; i < len(blocks); i++ {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, nil, 0, opts, fmt.Errorf("%w: %v", ErrBadFormat, err)
			}
			for k := range 8 {
				ws[8*i+k] = binary.LittleEndian.Uint64(buf[8*k:])
			}
			copy(vals[i*valsPerBlock:], buf[blockBytes:])
		}
	}
	// Serialized data is untrusted: corrupted metadata would send block
	// operations out of bounds later, so audit the structure now.
	if err := checkBlocks(words(blocks), g, count); err != nil {
		return nil, nil, 0, opts, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return blocks, vals, count, opts, nil
}

// metaOnes counts the terminator bits in a block's metadata words.
func metaOnes(blk []uint64, g *Geometry) uint64 {
	ones := 0
	for _, m := range blk[:g.metaWords] {
		ones += bits.OnesCount64(m)
	}
	return uint64(ones)
}

// checkBlocks audits a plain-form block array given as its words: every
// block holds exactly its geometry's number of terminator bits, and
// occupancies sum to count. With exactly that many terminators the final
// one is the highest set metadata bit, so no used bit can lie above it and
// the occupancy is its position past the bucket count.
func checkBlocks(ws []uint64, g *Geometry, count uint64) error {
	var total uint64
	for i := 0; i < len(ws); i += 8 {
		blk := ws[i : i+8]
		if ones := metaOnes(blk, g); ones != g.Buckets {
			return fmt.Errorf("block %d: %d terminator bits, want %d", i/8, ones, g.Buckets)
		}
		top := 0
		for j, m := range blk[:g.metaWords] {
			if m != 0 {
				top = 64*j + bits.Len64(m)
			}
		}
		occ := uint64(top) - g.Buckets
		if occ > g.Slots {
			return fmt.Errorf("block %d: occupancy %d exceeds %d slots", i/8, occ, g.Slots)
		}
		total += occ
	}
	if total != count {
		return fmt.Errorf("occupancy sum %d != count %d", total, count)
	}
	return nil
}

// errLockedBlock reports a serialization attempt on a filter with an active
// writer.
func errLockedBlock(i int) error {
	return fmt.Errorf("core: block %d is locked; serialization requires a quiescent filter", i)
}

// ReadFilter8 deserializes a Filter8 written by WriteTo.
func ReadFilter8(r io.Reader) (*Filter8, error) {
	f := new(Filter8)
	return readInto(f, f.read(r, Geom8, 0))
}

// ReadFilter8Sized deserializes a Filter8 whose geometry is known in advance
// (e.g. an elastic-cascade level derived from the cascade config): the
// stream's block count must equal the geometry NewFilter8(wantSlots, ...)
// would build, rejecting inconsistent streams before any block allocation.
func ReadFilter8Sized(r io.Reader, wantSlots uint64) (*Filter8, error) {
	f := new(Filter8)
	return readInto(f, f.read(r, Geom8, Geom8.Blocks(wantSlots)))
}

// ReadFilter16 deserializes a Filter16 written by WriteTo.
func ReadFilter16(r io.Reader) (*Filter16, error) {
	f := new(Filter16)
	return readInto(f, f.read(r, Geom16, 0))
}

// ReadFilter16Sized is ReadFilter8Sized for the 16-bit geometry.
func ReadFilter16Sized(r io.Reader, wantSlots uint64) (*Filter16, error) {
	f := new(Filter16)
	return readInto(f, f.read(r, Geom16, Geom16.Blocks(wantSlots)))
}

// ReadCFilter8 deserializes a concurrent filter from a Filter8-format stream
// (written by either CFilter8.WriteTo or Filter8.WriteTo).
func ReadCFilter8(r io.Reader) (*CFilter8, error) {
	f := new(CFilter8)
	return readInto(f, f.read(r, Geom8, f))
}

// ReadCFilter16 deserializes a concurrent filter from a Filter16-format
// stream.
func ReadCFilter16(r io.Reader) (*CFilter16, error) {
	f := new(CFilter16)
	return readInto(f, f.read(r, Geom16, f))
}

// readInto returns the filter a reader filled, or nil and the read error.
func readInto[F any](f *F, err error) (*F, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// WriteTo serializes the value-associating filter: the standard header,
// then each block's 64 bytes followed by its parallel value bytes. It
// implements io.WriterTo.
func (f *KVFilter8) WriteTo(w io.Writer) (int64, error) {
	return writeStream(w, magicKV, Geom8, words(f.blocks), f.vals, f.count, Options{}, false)
}

// ReadKV8 deserializes a KVFilter8 written by WriteTo.
func ReadKV8(r io.Reader) (*KVFilter8, error) {
	blocks, vals, count, _, err := readStream[minifilter.Block8](r, magicKV, Geom8, 0, minifilter.B8Slots)
	if err != nil {
		return nil, err
	}
	f := &KVFilter8{vals: vals}
	f.init(Geom8, blocks, count, Options{})
	return f, nil
}

// writeShardHeader emits the sharded sub-header: magic, version, geometry
// kind (8 or 16), shard count.
func writeShardHeader(w io.Writer, geom uint16, nshards uint32) (int64, error) {
	var hdr [shardHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], shardMagic)
	binary.LittleEndian.PutUint16(hdr[4:], serialVersion)
	binary.LittleEndian.PutUint16(hdr[6:], geom)
	binary.LittleEndian.PutUint32(hdr[8:], nshards)
	n, err := w.Write(hdr[:])
	return int64(n), err
}

func readShardHeader(r io.Reader) (geom uint16, nshards uint32, err error) {
	var hdr [shardHeaderBytes]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != shardMagic {
		return 0, 0, fmt.Errorf("%w: bad shard magic", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != serialVersion {
		return 0, 0, fmt.Errorf("%w: unsupported shard version %d", ErrBadFormat, v)
	}
	geom = binary.LittleEndian.Uint16(hdr[6:])
	if GeometryOfBits(uint(geom)) == nil {
		return 0, 0, fmt.Errorf("%w: unknown shard geometry %d", ErrBadFormat, geom)
	}
	nshards = binary.LittleEndian.Uint32(hdr[8:])
	if nshards == 0 || nshards > 1<<maxShardBits || nshards&(nshards-1) != 0 {
		return 0, 0, fmt.Errorf("%w: shard count %d not a power of two in [1, %d]",
			ErrBadFormat, nshards, 1<<maxShardBits)
	}
	return geom, nshards, nil
}

// WriteTo serializes the sharded filter: the shard sub-header followed by
// each shard's stream. It implements io.WriterTo; the filter must be
// quiescent.
func (f *sharded[S]) WriteTo(w io.Writer) (int64, error) {
	n, err := writeShardHeader(w, uint16(f.Geometry().FPBits), uint32(len(f.shards)))
	if err != nil {
		return n, err
	}
	for _, s := range f.shards {
		m, err := s.WriteTo(w)
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadSharded deserializes a sharded filter written by Sharded8.WriteTo or
// Sharded16.WriteTo; exactly one of the returns is non-nil on success (the
// stream records which geometry it holds).
func ReadSharded(r io.Reader) (*Sharded8, *Sharded16, error) {
	geom, nshards, err := readShardHeader(r)
	if err != nil {
		return nil, nil, err
	}
	if geom == 8 {
		shards, err := readShards(r, nshards, ReadCFilter8)
		if err != nil {
			return nil, nil, err
		}
		f := new(Sharded8)
		f.init(shards)
		return f, nil, nil
	}
	shards, err := readShards(r, nshards, ReadCFilter16)
	if err != nil {
		return nil, nil, err
	}
	f := new(Sharded16)
	f.init(shards)
	return nil, f, nil
}

// readShards reads nshards shard streams in shard order.
func readShards[S shardFilter](r io.Reader, nshards uint32, read func(io.Reader) (S, error)) ([]S, error) {
	shards := make([]S, nshards)
	for i := range shards {
		var err error
		if shards[i], err = read(r); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return shards, nil
}
