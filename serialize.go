package vqf

import (
	"encoding/binary"
	"fmt"
	"io"

	"vqf/internal/core"
	"vqf/internal/telemetry"
)

// Serialization of the public types: a small envelope (payload kind and
// hash seed) around the internal filter stream, so a filter saved by one
// process answers queries identically in another. Filter, Map and Elastic
// share the envelope format and differ only in the kind tag, which lets
// each reader reject the others' streams with a pointed error.

const (
	envMagic    = 0x53465156 // "VQFS"
	envVersion  = 1
	kind8       = 8
	kind16      = 16
	kindMap     = 0x4b // 'K': value-associating filter (Map)
	kindElastic = 0x45 // 'E': elastic cascade
	kindSharded = 0x53 // 'S': sharded concurrent filter
	kindFrozen  = 0x46 // 'F': standalone immutable binary fuse filter
)

// envelopeBytes is the envelope header size: magic(4) version(2) kind(2)
// seed(8).
const envelopeBytes = 16

// writeEnvelope writes the shared envelope header.
func writeEnvelope(w io.Writer, kind uint16, seed uint64) (int64, error) {
	var hdr [envelopeBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], envMagic)
	binary.LittleEndian.PutUint16(hdr[4:], envVersion)
	binary.LittleEndian.PutUint16(hdr[6:], kind)
	binary.LittleEndian.PutUint64(hdr[8:], seed)
	n, err := w.Write(hdr[:])
	return int64(n), err
}

// kindName names an envelope kind and the function that reads it, for
// mismatch errors.
func kindName(kind uint16) string {
	switch kind {
	case kind8, kind16:
		return "a Filter (use vqf.Read)"
	case kindMap:
		return "a Map (use vqf.NewMapFromReader)"
	case kindElastic:
		return "an Elastic filter (use vqf.ReadElastic)"
	case kindSharded:
		return "a sharded Filter (use vqf.Read or vqf.ReadConcurrent)"
	case kindFrozen:
		return "a Frozen filter (use vqf.ReadFrozen)"
	}
	return fmt.Sprintf("unknown kind %d", kind)
}

// readEnvelopeKind reads and validates the envelope header, returning the
// payload kind and seed.
func readEnvelopeKind(r io.Reader) (kind uint16, seed uint64, err error) {
	var hdr [envelopeBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("vqf: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != envMagic {
		return 0, 0, fmt.Errorf("vqf: not a serialized filter")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != envVersion {
		return 0, 0, fmt.Errorf("vqf: unsupported serialization version %d", v)
	}
	return binary.LittleEndian.Uint16(hdr[6:]), binary.LittleEndian.Uint64(hdr[8:]), nil
}

// readEnvelope reads the envelope header and requires the given kind.
func readEnvelope(r io.Reader, want uint16) (seed uint64, err error) {
	kind, seed, err := readEnvelopeKind(r)
	if err != nil {
		return 0, err
	}
	if kind != want {
		return 0, fmt.Errorf("vqf: stream holds %s", kindName(kind))
	}
	return seed, nil
}

// WriteTo serializes the filter; it implements io.WriterTo. All Filter
// variants serialize: sequential and concurrent filters share one stream
// format per geometry (a filter saved by either loads into either), and
// sharded filters add a sub-header recording the shard layout. Concurrent
// and sharded filters must be quiescent — no in-flight writers — while
// WriteTo runs; a held block lock is detected and reported as an error.
func (f *Filter) WriteTo(w io.Writer) (int64, error) {
	var kind uint16
	var wt io.WriterTo
	switch impl := f.impl.(type) {
	case *core.Filter8:
		kind, wt = kind8, impl
	case *core.Filter16:
		kind, wt = kind16, impl
	case *core.CFilter8:
		kind, wt = kind8, impl
	case *core.CFilter16:
		kind, wt = kind16, impl
	case *core.Sharded8:
		kind, wt = kindSharded, impl
	case *core.Sharded16:
		kind, wt = kindSharded, impl
	default:
		return 0, fmt.Errorf("vqf: filter type %T does not support serialization", f.impl)
	}
	n, err := writeEnvelope(w, kind, f.seed)
	if err != nil {
		return n, err
	}
	m, err := wt.WriteTo(w)
	return n + m, err
}

// Read deserializes a filter previously written with WriteTo. Streams of
// kind 8/16 load as sequential filters regardless of which variant wrote
// them (use ReadConcurrent to load them thread-safe); sharded streams
// always load as sharded (thread-safe) filters.
func Read(r io.Reader) (*Filter, error) { return readFilter(r, false) }

// ReadConcurrent deserializes a filter previously written with WriteTo into
// a thread-safe form: kind 8/16 streams load as concurrent filters, sharded
// streams as sharded filters. The stream format does not record which
// variant wrote it — Read and ReadConcurrent both accept any Filter stream.
func ReadConcurrent(r io.Reader) (*Filter, error) { return readFilter(r, true) }

// readFilter is Read (concurrent false) and ReadConcurrent.
func readFilter(r io.Reader, concurrent bool) (*Filter, error) {
	kind, seed, err := readEnvelopeKind(r)
	if err != nil {
		return nil, err
	}
	f := &Filter{seed: seed}
	switch kind {
	case kind8:
		f.fpr = geom8.fpr
		if concurrent {
			f.impl, err = core.ReadCFilter8(r)
		} else {
			f.impl, err = core.ReadFilter8(r)
		}
	case kind16:
		f.fpr = geom16.fpr
		if concurrent {
			f.impl, err = core.ReadCFilter16(r)
		} else {
			f.impl, err = core.ReadFilter16(r)
		}
	case kindSharded:
		concurrent = true
		s8, s16, serr := core.ReadSharded(r)
		f.impl, f.fpr, err = s16, geom16.fpr, serr
		if s8 != nil {
			f.impl, f.fpr = s8, geom8.fpr
		}
	default:
		return nil, fmt.Errorf("vqf: stream holds %s", kindName(kind))
	}
	if err != nil {
		return nil, err
	}
	f.initObservability(telemetry.DefaultSamplingRate, concurrent)
	return f, nil
}

// WriteTo serializes the Map (envelope, blocks and values). It implements
// io.WriterTo.
func (m *Map) WriteTo(w io.Writer) (int64, error) {
	n, err := writeEnvelope(w, kindMap, m.seed)
	if err != nil {
		return n, err
	}
	k, err := m.impl.WriteTo(w)
	return n + k, err
}

// NewMapFromReader deserializes a Map written by Map.WriteTo. The hash seed
// travels with the Map, so keys stored by the writing process resolve
// identically.
func NewMapFromReader(r io.Reader) (*Map, error) {
	seed, err := readEnvelope(r, kindMap)
	if err != nil {
		return nil, err
	}
	impl, err := core.ReadKV8(r)
	if err != nil {
		return nil, err
	}
	return &Map{impl: impl, seed: seed}, nil
}
