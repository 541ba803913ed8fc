// Package service is the filter-as-a-service layer behind cmd/vqfd: a
// registry of named hosted filters (plain, concurrent, sharded, elastic,
// kv map), an HTTP/JSON admin+data API, a length-prefixed binary protocol
// whose frames carry batches of keys straight into one batch call each,
// snapshot persistence with warm restart, and graceful
// drain-then-snapshot shutdown. Everything is stdlib-only, like the rest
// of the repository.
package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary wire protocol. Both directions use the same outer framing: a
// 4-byte little-endian payload length followed by the payload. Payloads:
//
//	request:  op(1) flags(1) nameLen(2) name(nameLen) count(4)
//	          keys(count × 8, little-endian uint64)
//	          [values(count × 1), opPut only]
//	response: op(1) status(1) reserved(2, zero) count(4) body
//
// Keys are raw 64-bit client keys: the server hashes them with the target
// filter's seed and dispatches the whole frame into one batch call
// (InsertBatch/ContainsBatch/RemoveBatch), so per-key cost on the wire is
// 8 bytes and per-key cost in the server is one hash plus its share of a
// single batch-kernel invocation. Responses carry a count (keys inserted/
// removed, or keys echoed for lookups) and, for lookups, a packed
// presence bitmap (bit i = key i present, LSB-first); opGet appends one
// value byte per key after the bitmap.
//
// The protocol is strictly request-response per frame but clients may
// pipeline: the server answers frames in arrival order and delays its
// write-buffer flush while more requests are already buffered.
const (
	opInsert   byte = 1 // membership insert (map kind: put with value 0)
	opContains byte = 2 // membership query (map kind: presence of key)
	opRemove   byte = 3 // membership remove (map kind: delete)
	opPut      byte = 4 // map only: store key→value; flagUpdate updates in place
	opGet      byte = 5 // map only: value lookup (bitmap + value bytes)
	opPing     byte = 6 // liveness/flush probe, no name or keys required
)

// Response status codes.
const (
	statusOK         byte = 0
	statusNoFilter   byte = 1 // no hosted filter with that name
	statusBadRequest byte = 2 // malformed frame (op, lengths, counts)
	statusDraining   byte = 3 // server is shutting down
	statusTimeout    byte = 4 // per-filter op timeout expired while queued
	statusWrongKind  byte = 5 // opPut/opGet on a non-map filter
	statusFull       byte = 6 // reserved: not currently sent (partial inserts report counts)
)

// statusText names a wire status for client error messages.
func statusText(status byte) string {
	switch status {
	case statusOK:
		return "ok"
	case statusNoFilter:
		return "no such filter"
	case statusBadRequest:
		return "bad request"
	case statusDraining:
		return "server draining"
	case statusTimeout:
		return "op timeout"
	case statusWrongKind:
		return "wrong filter kind"
	case statusFull:
		return "filter full"
	}
	return fmt.Sprintf("unknown status %d", status)
}

// statusOf maps a service error to its wire status.
func statusOf(err error) byte {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, ErrNotFound):
		return statusNoFilter
	case errors.Is(err, ErrTimeout):
		return statusTimeout
	case errors.Is(err, ErrWrongKind):
		return statusWrongKind
	default:
		return statusBadRequest
	}
}

// flagUpdate, on opPut, updates the values of already-stored keys instead
// of inserting new fingerprints (vqf.Map.Update semantics).
const flagUpdate byte = 1

const (
	// DefaultMaxFrameBytes bounds one frame's payload; at 8 bytes per key a
	// 16 MiB frame carries ~2M keys, far beyond any sensible batch.
	DefaultMaxFrameBytes = 16 << 20
	// maxNameBytes bounds the filter-name field (names are validated to be
	// much shorter at create time; this bounds hostile frames).
	maxNameBytes = 1 << 10
	// reqFixedBytes is the fixed part of a request payload.
	reqFixedBytes = 1 + 1 + 2 + 4
	// respFixedBytes is the fixed part of a response payload.
	respFixedBytes = 1 + 1 + 2 + 4
)

// readFrame reads one length-prefixed frame payload into buf (grown as
// needed) and returns the payload slice.
func readFrame(r *bufio.Reader, buf []byte, maxLen int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxLen {
		return buf, fmt.Errorf("service: frame payload %d exceeds limit %d", n, maxLen)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, fmt.Errorf("service: short frame: %w", err)
	}
	return buf, nil
}

// request is one decoded data-plane request. keys aliases the decoder's
// scratch and is only valid until the next parse on the same scratch.
type request struct {
	op    byte
	flags byte
	name  []byte
	keys  []uint64
	vals  []byte
}

// appendRequest appends an encoded request frame (length prefix included)
// to dst. vals must be empty or len(keys) long (opPut).
func appendRequest(dst []byte, op, flags byte, name string, keys []uint64, vals []byte) ([]byte, error) {
	if len(name) > maxNameBytes {
		return dst, fmt.Errorf("service: filter name %d bytes exceeds %d", len(name), maxNameBytes)
	}
	if len(vals) != 0 && len(vals) != len(keys) {
		return dst, fmt.Errorf("service: %d values for %d keys", len(vals), len(keys))
	}
	payload := reqFixedBytes + len(name) + 8*len(keys) + len(vals)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = append(dst, op, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	dst = append(dst, vals...)
	return dst, nil
}

// parseRequest decodes a request payload. req.keys reuses the prior
// backing array when large enough; req.name and req.vals alias payload.
func parseRequest(payload []byte, req *request) error {
	if len(payload) < reqFixedBytes {
		return fmt.Errorf("service: request payload %d bytes, want >= %d", len(payload), reqFixedBytes)
	}
	req.op = payload[0]
	req.flags = payload[1]
	nameLen := int(binary.LittleEndian.Uint16(payload[2:]))
	if nameLen > maxNameBytes || reqFixedBytes-4+nameLen+4 > len(payload) {
		return fmt.Errorf("service: request name length %d overruns payload", nameLen)
	}
	p := payload[4:]
	req.name = p[:nameLen]
	p = p[nameLen:]
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	wantVals := 0
	if req.op == opPut {
		wantVals = count
	}
	if count < 0 || len(p) != 8*count+wantVals {
		return fmt.Errorf("service: request body %d bytes for %d keys (op %d)", len(p), count, req.op)
	}
	if cap(req.keys) < count {
		req.keys = make([]uint64, count)
	}
	req.keys = req.keys[:count]
	for i := range req.keys {
		req.keys[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	req.vals = p[8*count:]
	return nil
}

// response is one decoded data-plane response; body aliases the parse
// buffer.
type response struct {
	op     byte
	status byte
	count  uint32
	body   []byte
}

// writeResponse writes an encoded response frame to w. The header is
// built in w's free buffer space, so it costs no allocation.
func writeResponse(w *bufio.Writer, op, status byte, count uint32, body []byte) error {
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(respFixedBytes+len(body)))
	hdr = append(hdr, op, status, 0, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, count)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// parseResponse decodes a response payload.
func parseResponse(payload []byte, resp *response) error {
	if len(payload) < respFixedBytes {
		return fmt.Errorf("service: response payload %d bytes, want >= %d", len(payload), respFixedBytes)
	}
	if payload[2]|payload[3] != 0 {
		return fmt.Errorf("service: response reserved bytes %#x %#x, want zero", payload[2], payload[3])
	}
	resp.op = payload[0]
	resp.status = payload[1]
	resp.count = binary.LittleEndian.Uint32(payload[4:])
	resp.body = payload[respFixedBytes:]
	return nil
}

// packBools appends bs as an LSB-first bitmap to dst.
func packBools(dst []byte, bs []bool) []byte {
	n := (len(bs) + 7) / 8
	start := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	for i, b := range bs {
		if b {
			dst[start+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// unpackBools decodes an n-bool LSB-first bitmap from src into dst
// (reused when large enough).
func unpackBools(src []byte, n int, dst []bool) ([]bool, error) {
	if len(src) < (n+7)/8 {
		return dst, fmt.Errorf("service: bitmap %d bytes for %d bools", len(src), n)
	}
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = src[i/8]&(1<<(i%8)) != 0
	}
	return dst, nil
}
