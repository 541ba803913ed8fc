package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// Fuzz targets for the binary protocol's decoders: hostile frames must be
// rejected without a panic or an allocation past the frame limit, and
// every frame a decoder accepts must be exactly what its encoder writes.

// seedRequests returns one valid request frame (length prefix included)
// per op.
func seedRequests(tb testing.TB) [][]byte {
	cases := []struct {
		op    byte
		flags byte
		name  string
		keys  []uint64
		vals  []byte
	}{
		{opInsert, 0, "hot", []uint64{1, 2, 0xdeadbeefcafef00d}, nil},
		{opContains, 0, "a.filter-name_0", []uint64{42}, nil},
		{opRemove, 0, "x", []uint64{7}, nil},
		{opPut, 0, "kv", []uint64{7, 8}, []byte{200, 201}},
		{opPut, flagUpdate, "kv", []uint64{9}, []byte{1}},
		{opGet, 0, "kv", []uint64{7, 8, 9}, nil},
		{opPing, 0, "", nil, nil},
	}
	var frames [][]byte
	for _, c := range cases {
		frame, err := appendRequest(nil, c.op, c.flags, c.name, c.keys, c.vals)
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// seedResponses returns one valid response frame per op.
func seedResponses(tb testing.TB) [][]byte {
	cases := []struct {
		op, status byte
		count      uint32
		body       []byte
	}{
		{opInsert, statusOK, 3, nil},
		{opContains, statusOK, 9, []byte{0b10101010, 0x01}},
		{opRemove, statusTimeout, 0, nil},
		{opPut, statusWrongKind, 0, nil},
		{opGet, statusOK, 2, []byte{0b01, 200, 0}},
		{opPing, statusOK, 0, nil},
	}
	var frames [][]byte
	for _, c := range cases {
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		if err := writeResponse(w, c.op, c.status, c.count, c.body); err != nil {
			tb.Fatal(err)
		}
		w.Flush()
		frames = append(frames, out.Bytes())
	}
	return frames
}

// malformedRequests derives hostile frames from a valid one: truncated,
// an oversized length prefix, a name length overrunning the payload, and
// a key count that disagrees with the body.
func malformedRequests(tb testing.TB) [][]byte {
	frame := seedRequests(tb)[0]
	truncated := frame[:len(frame)-3]
	oversized := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(oversized, 1<<31)
	nameOverrun := bytes.Clone(frame)
	binary.LittleEndian.PutUint16(nameOverrun[4+2:], 0xffff)
	countMismatch := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(countMismatch[4+reqFixedBytes-4+len("hot"):], 4)
	return [][]byte{truncated, oversized, nameOverrun, countMismatch}
}

func FuzzReadFrame(f *testing.F) {
	frames := append(seedRequests(f), seedResponses(f)...)
	frames = append(frames, malformedRequests(f)...)
	for _, frame := range frames {
		f.Add(frame, uint16(0xffff))
		f.Add(frame, uint16(8))
	}
	f.Add(bytes.Join(frames, nil), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		maxLen := int(limit)
		r := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			prevCap := cap(buf)
			payload, err := readFrame(r, buf, maxLen)
			if err != nil {
				return
			}
			if len(payload) > maxLen {
				t.Fatalf("readFrame returned %d bytes, limit %d", len(payload), maxLen)
			}
			if cap(payload) > max(prevCap, maxLen) {
				t.Fatalf("readFrame grew its buffer to %d, limit %d", cap(payload), maxLen)
			}
			buf = payload
		}
	})
}

func FuzzParseRequest(f *testing.F) {
	for _, frame := range append(seedRequests(f), malformedRequests(f)...) {
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req request
		if parseRequest(payload, &req) != nil {
			return
		}
		frame, err := appendRequest(nil, req.op, req.flags, string(req.name), req.keys, req.vals)
		if err != nil {
			t.Fatalf("parsed request does not re-encode: %v", err)
		}
		if !bytes.Equal(frame[4:], payload) || int(binary.LittleEndian.Uint32(frame)) != len(payload) {
			t.Fatalf("request re-encodes to %x, parsed from %x", frame, payload)
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	for _, frame := range seedResponses(f) {
		f.Add(frame[4:])
		f.Add(frame[4 : len(frame)-1])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var resp response
		if parseResponse(payload, &resp) != nil {
			return
		}
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		if err := writeResponse(w, resp.op, resp.status, resp.count, resp.body); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		frame := out.Bytes()
		if !bytes.Equal(frame[4:], payload) || int(binary.LittleEndian.Uint32(frame)) != len(payload) {
			t.Fatalf("response re-encodes to %x, parsed from %x", frame, payload)
		}
	})
}
