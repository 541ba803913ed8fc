package vqf

import (
	"fmt"
	"io"

	"vqf/internal/fuse"
	"vqf/internal/hashing"
)

// Frozen is a standalone immutable filter: a static 3-wise binary fuse
// filter built once over a fixed key set. It answers membership in a single
// probe of three fingerprint cells (~1.13·w bits per key for a w-bit
// fingerprint — roughly 30–40% smaller than the live VQF geometry at equal
// FPR) but supports no Add or Remove; rebuild it to change the set. Use it
// for sealed artifacts — an SSTable's key set, a finished shard, anything
// written once and queried forever. Inside an elastic cascade the same
// structure backs the frozen tier automatically (Elastic.FreezeNow); Frozen
// is the standalone form for key sets managed outside a cascade.
//
// All methods are safe for concurrent use: the filter is immutable.
type Frozen struct {
	f    *fuse.Filter
	seed uint64
}

// frozenFromHashes builds the fuse structure at the loosest fingerprint
// width that meets the configured FPR (fuse.WidthFor), rejecting rates
// below 2⁻¹⁶, which no width meets.
func frozenFromHashes(hs []uint64, c config) (*Frozen, error) {
	bits, ok := fuse.WidthFor(c.fpr)
	if !ok {
		return nil, fmt.Errorf("vqf: false-positive rate %g below frozen filter minimum 2^-16", c.fpr)
	}
	f, err := fuse.Build(hs, bits)
	if err != nil {
		return nil, err
	}
	return &Frozen{f: f, seed: c.seed}, nil
}

// NewFrozen builds an immutable filter over keys. Duplicate keys collapse
// to one membership entry. The false-positive rate is set with
// WithFalsePositiveRate (2⁻⁸ and 2⁻¹⁶ are the realizable widths; the
// loosest width meeting the request is used) and the hash seed with
// WithSeed; other options are ignored. The keys slice is not retained.
func NewFrozen(keys [][]byte, opts ...Option) (*Frozen, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	hs := make([]uint64, len(keys))
	for i, k := range keys {
		hs[i] = hashing.HashBytes(k, c.seed)
	}
	return frozenFromHashes(hs, c)
}

// NewFrozenFromHashes builds an immutable filter over pre-hashed 64-bit
// keys, skipping the internal hashing step; see NewFrozen.
func NewFrozenFromHashes(hs []uint64, opts ...Option) (*Frozen, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return frozenFromHashes(hs, c)
}

// Contains reports whether key may be in the set: always true for built-in
// keys, false with probability ≥ 1−ε otherwise.
func (f *Frozen) Contains(key []byte) bool {
	return f.ContainsHash(hashing.HashBytes(key, f.seed))
}

// ContainsString queries a string key.
func (f *Frozen) ContainsString(key string) bool {
	return f.ContainsHash(hashing.HashString(key, f.seed))
}

// ContainsUint64 queries a uint64 key.
func (f *Frozen) ContainsUint64(key uint64) bool {
	return f.ContainsHash(hashing.HashUint64(key, f.seed))
}

// ContainsHash queries a pre-hashed 64-bit key.
func (f *Frozen) ContainsHash(h uint64) bool { return f.f.Contains(h) }

// ContainsHashBatch answers membership for every pre-hashed key of hs in
// input order, reusing dst when it has capacity (dst may be nil).
func (f *Frozen) ContainsHashBatch(hs []uint64, dst []bool) []bool {
	return f.f.ContainsBatch(hs, dst)
}

// Count returns the number of distinct keys the filter was built over.
func (f *Frozen) Count() uint64 { return f.f.Keys() }

// SizeBytes returns the fingerprint array's footprint.
func (f *Frozen) SizeBytes() uint64 { return f.f.SizeBytes() }

// BitsPerItem returns the realized space cost per key, ≈1.13·w for a large
// filter with w-bit fingerprints (0 when empty).
func (f *Frozen) BitsPerItem() float64 { return f.f.BitsPerKey() }

// FalsePositiveRate returns the analytic false-positive rate of the chosen
// fingerprint width (2⁻⁸ or 2⁻¹⁶).
func (f *Frozen) FalsePositiveRate() float64 { return f.f.FPR() }

// WriteTo serializes the filter (envelope, fingerprint width, fuse stream);
// it implements io.WriterTo.
func (f *Frozen) WriteTo(w io.Writer) (int64, error) {
	n, err := writeEnvelope(w, kindFrozen, f.seed)
	if err != nil {
		return n, err
	}
	if _, err := w.Write([]byte{f.f.Bits()}); err != nil {
		return n, err
	}
	n++
	m, err := f.f.WriteTo(w)
	return n + m, err
}

// ReadFrozen deserializes a filter written by Frozen.WriteTo. The hash seed
// travels with the filter, so keys stored by the writing process resolve
// identically.
func ReadFrozen(r io.Reader) (*Frozen, error) {
	seed, err := readEnvelope(r, kindFrozen)
	if err != nil {
		return nil, err
	}
	var width [1]byte
	if _, err := io.ReadFull(r, width[:]); err != nil {
		return nil, fmt.Errorf("vqf: reading frozen width: %w", err)
	}
	f, err := fuse.Read(r, width[0])
	if err != nil {
		return nil, fmt.Errorf("vqf: frozen filter: %w", err)
	}
	return &Frozen{f: f, seed: seed}, nil
}
