package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// streamKeys is a fixed splitmix64 key stream, so the filters below are
// built identically on every run and every platform.
func streamKeys(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		out[i] = z ^ z>>31
	}
	return out
}

// streamFilter is the mutation surface the stream-stability cases share.
type streamFilter interface {
	io.WriterTo
	Insert(h uint64) bool
	Remove(h uint64) bool
	BlockOccupancies() []uint
	SlotsPerBlock() uint
}

// TestStreamStability pins the serialized byte format: each filter is built
// from a fixed key stream (filled near capacity, so full blocks and their
// terminator encoding are covered, then partly drained) and the SHA-256 of
// its WriteTo output must equal the recorded digest. Round-trip tests pass
// even when writer and reader change together; this one fails on any change
// to the bytes a stream holds.
func TestStreamStability(t *testing.T) {
	cases := []struct {
		name string
		f    streamFilter
		want string
	}{
		{"filter8", NewFilter8(1<<12, Options{}),
			"334232bb180644f70aa60bd009f0070b80bea0b94d5e7cca6a1a13b61f5eab4d"},
		{"filter8-noshortcut", NewFilter8(1<<12, Options{NoShortcut: true}),
			"5875f6c544f4f51292ce3fed75641ba7753e22548e31454a9dff44bb9fa1dcd1"},
		{"filter16", NewFilter16(1<<12, Options{}),
			"4b4c560438408d69d0b47a17620afa86e2d744088ba348c4fadb6028a5562640"},
		{"cfilter8", NewCFilter8(1<<12, Options{}),
			"334232bb180644f70aa60bd009f0070b80bea0b94d5e7cca6a1a13b61f5eab4d"},
		{"cfilter16", NewCFilter16(1<<12, Options{NoShortcut: true}),
			"9c23f8cb31142e98cd9436161d6089835ec54a0276d2dd835071f835b3debbfe"},
		{"sharded8", NewSharded8(1<<13, 2, Options{}),
			"b2d805e1fe0e69fe1332fea9e5e783b52993c3fd5bf3dbc1b9ebfce2cb837f18"},
		{"sharded16", NewSharded16(1<<13, 2, Options{}),
			"e02e283cccef77d9b8af38f6f8c52cb9f171a2a8b93b1dfb8803a7c484499d78"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys := streamKeys(42, 1<<14)
			var ins []uint64
			for _, h := range keys {
				if tc.f.Insert(h) {
					ins = append(ins, h)
				}
			}
			for _, h := range ins[:len(ins)/16] {
				if !tc.f.Remove(h) {
					t.Fatal("remove of an inserted key failed")
				}
			}
			full := 0
			for _, occ := range tc.f.BlockOccupancies() {
				if occ == tc.f.SlotsPerBlock() {
					full++
				}
			}
			if full == 0 {
				t.Fatal("no full block: the full-block encoding is not covered")
			}
			checkDigest(t, tc.f, tc.want)
		})
	}
	t.Run("kv8", func(t *testing.T) {
		f := NewKV8(1 << 12)
		keys := streamKeys(43, 1<<12)
		for i, h := range keys {
			f.Put(h, byte(i))
		}
		for _, h := range keys[:len(keys)/4] {
			f.Delete(h)
		}
		checkDigest(t, f, "3d5e4a895cbe117d156d1a1eb6c276f9a2715182cabe5cb4cc7514882ff68b1e")
	})
}

func checkDigest(t *testing.T, w io.WriterTo, want string) {
	t.Helper()
	d := sha256.New()
	if _, err := w.WriteTo(d); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Errorf("stream digest %s, want %s", got, want)
	}
}
