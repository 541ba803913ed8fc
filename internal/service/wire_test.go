package service

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []struct {
		op    byte
		flags byte
		name  string
		keys  []uint64
		vals  []byte
	}{
		{opPing, 0, "", nil, nil},
		{opInsert, 0, "hot", []uint64{1, 2, 3, 0xdeadbeefcafef00d}, nil},
		{opContains, 0, "a.filter-name_0", []uint64{42}, nil},
		{opPut, flagUpdate, "kv", []uint64{7, 8}, []byte{200, 201}},
		{opRemove, 0, "x", nil, nil},
	}
	var buf []byte
	var req request
	for _, c := range cases {
		frame, err := appendRequest(buf[:0], c.op, c.flags, c.name, c.keys, c.vals)
		if err != nil {
			t.Fatalf("append %+v: %v", c, err)
		}
		// Strip the 4-byte length prefix: parseRequest sees only the payload.
		if err := parseRequest(frame[4:], &req); err != nil {
			t.Fatalf("parse %+v: %v", c, err)
		}
		if req.op != c.op || req.flags != c.flags || string(req.name) != c.name {
			t.Fatalf("decoded header %d/%d/%q, want %d/%d/%q", req.op, req.flags, req.name, c.op, c.flags, c.name)
		}
		if len(req.keys) != len(c.keys) {
			t.Fatalf("decoded %d keys, want %d", len(req.keys), len(c.keys))
		}
		for i := range c.keys {
			if req.keys[i] != c.keys[i] {
				t.Fatalf("key %d decoded %d, want %d", i, req.keys[i], c.keys[i])
			}
		}
		if !bytes.Equal(req.vals, c.vals) && len(c.vals) > 0 {
			t.Fatalf("decoded vals %v, want %v", req.vals, c.vals)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	w := bufio.NewWriter(&sink)
	body := []byte{0b10101010, 0x05}
	if err := writeResponse(w, opGet, statusOK, 8, body); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&sink)
	payload, err := readFrame(r, nil, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := parseResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.op != opGet || resp.status != statusOK || resp.count != 8 || !bytes.Equal(resp.body, body) {
		t.Fatalf("decoded %+v body=%v, want op=%d status=%d count=8 body=%v", resp, resp.body, opGet, statusOK, body)
	}
}

func TestPackUnpackBools(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 513} {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = i%3 == 0
		}
		packed := packBools(nil, bs)
		if want := (n + 7) / 8; len(packed) != want {
			t.Fatalf("n=%d packed to %d bytes, want %d", n, len(packed), want)
		}
		got, err := unpackBools(packed, n, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range bs {
			if got[i] != bs[i] {
				t.Fatalf("n=%d bit %d decoded %v, want %v", n, i, got[i], bs[i])
			}
		}
	}
	if _, err := unpackBools([]byte{0}, 9, nil); err == nil {
		t.Fatal("short bitmap not rejected")
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	frame, err := appendRequest(nil, opInsert, 0, "f", make([]uint64, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = readFrame(bufio.NewReader(bytes.NewReader(frame)), nil, 64)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
}

func TestParseRequestMalformed(t *testing.T) {
	var req request
	cases := map[string][]byte{
		"short payload":      {1, 0, 0},
		"name overrun":       {1, 0, 255, 255, 'x'},
		"body count overrun": append([]byte{1, 0, 0, 0}, 255, 0, 0, 0),
	}
	for name, payload := range cases {
		if err := parseRequest(payload, &req); err == nil {
			t.Errorf("%s: not rejected", name)
		}
	}
	// opPut without its value bytes is malformed.
	frame, err := appendRequest(nil, opInsert, 0, "f", []uint64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), frame[4:]...)
	payload[0] = opPut
	if err := parseRequest(payload, &req); err == nil {
		t.Error("opPut missing values not rejected")
	}
}
