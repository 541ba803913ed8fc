package main

import (
	"fmt"

	"vqf"
	"vqf/internal/core"
	"vqf/internal/elastic"
	"vqf/internal/minifilter"
	"vqf/internal/service"
)

// sizes are the state sizes of the three workloads; tests shrink them.
type sizes struct {
	cacheBlocks uint64 // 8-bit blocks of cache-batch (64 B each)
	window      uint64 // cascade-churn live window W
	vqfdItems   uint64 // vqfd-binary hosted capacity in items
}

// fullSizes: cache-batch is 512 KiB, a quarter of a 2 MiB L2, so the
// traced run's three block arrays (system, core twin, minifilter twin) fit
// in L2 together.
var fullSizes = sizes{cacheBlocks: 1 << 13, window: 1 << 17, vqfdItems: 1 << 20}

// itemsFor returns the vqf.New item count whose sizing yields exactly
// blocks blocks of slots slots (New provisions n/0.9 slots and rounds the
// block count up to a power of two).
func itemsFor(blocks, slots uint64) uint64 {
	return uint64(float64(blocks*slots) * 0.9 * 0.999)
}

func wantBytes(got, blocks uint64) error {
	if got != blocks*64 {
		return fmt.Errorf("filter is %d bytes, want %d", got, blocks*64)
	}
	return nil
}

// mix returns a request cycle of lookups lookup requests, then one insert
// and one remove request.
func mix(lookups int, lookup, ins, rem segShape) []shape {
	var p []shape
	for i := 0; i < lookups; i++ {
		p = append(p, shape{lookup})
	}
	return append(p, shape{ins}, shape{rem})
}

func workloads(z sizes) []*workload {
	return []*workload{cacheBatch(z), cascadeChurn(z), vqfdBinary(z)}
}

func findWorkload(z sizes, name string) (*workload, error) {
	for _, w := range workloads(z) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cacheBatch: an 8-bit filter a quarter the size of L2, 4096-key pre-hashed
// batch calls, eight lookups (half live) per insert and remove.
func cacheBatch(z sizes) *workload {
	return &workload{
		name: "cache-batch",
		top:  "vqf",
		pattern: mix(8, segShape{op: opContains, n: 4096, live: 2048},
			segShape{op: opInsert, n: 4096}, segShape{op: opRemove, n: 4096}),
		load:      0.85,
		setupReps: timeParts,
		build: func(seed uint64) (system, error) {
			f := vqf.New(itemsFor(z.cacheBlocks, minifilter.B8Slots), vqf.WithSeed(seed))
			return &facadeBatch{filterSystem: filterSystem{f}}, wantBytes(f.SizeBytes(), z.cacheBlocks)
		},
		twins: func(seed uint64, sys system) ([]rung, error) {
			c := core.NewFilter8(z.cacheBlocks*minifilter.B8Slots, core.Options{})
			return []rung{
				{"hashing", &hashRung{seed: seed}},
				{"minifilter", newMini8(z.cacheBlocks)},
				{"core", coreRung{f: c}},
			}, wantBytes(c.SizeBytes(), z.cacheBlocks)
		},
	}
}

// The cascade policy makes structural ops depend on operation counts only:
// auto compaction at four levels, and a freeze of any superseded level that
// has drained to a tenth of its capacity, with no minimum age. A freeze of
// every superseded level at once would keep the cascade below the four
// levels compaction needs.
const (
	compactMinLevels = 4
	freezeMaxLoad    = 0.1
)

// cascadeChurn: a sequential elastic cascade under LSM-style churn: a
// sliding window of W live keys with every 16th key living 4W, in 1024-key
// insert, remove and three lookup requests. With lookups the majority, the
// median request is a lookup rather than the edge between two request
// kinds. A fixed window eventually fits the newest level and structural
// ops stop, so each epoch is one life cycle of a fresh cascade: set-up
// fills the window, then the timed churn runs to 6W insertions, through
// growth, freezes, thaws and compactions.
func cascadeChurn(z sizes) *workload {
	ch := churn{window: z.window, stride: 16, lifeMul: 4, epoch: 6 * z.window}
	return &workload{
		name: "cascade-churn",
		top:  "vqf",
		pattern: []shape{
			{{op: opInsert, n: 1024}},
			{{op: opRemove, n: 1024}},
			{{op: opContains, n: 1024, live: 512}},
			{{op: opContains, n: 1024, live: 512}},
			{{op: opContains, n: 1024, live: 512}},
		},
		churn: ch,
		build: func(seed uint64) (system, error) {
			return elasticSystem{vqf.NewElastic(
				vqf.WithAutoCompaction(compactMinLevels, 0), vqf.WithAutoFreeze(0, freezeMaxLoad))}, nil
		},
		twins: func(seed uint64, sys system) ([]rung, error) {
			// The same cascade below the facade: vqf.NewElastic's defaults
			// with the options above.
			e, err := elastic.New(elastic.Config{
				TargetFPR:        elastic.FPR8Full,
				CompactMinLevels: compactMinLevels,
				AutoFreeze:       true,
				FreezeMaxLoad:    freezeMaxLoad,
			})
			if err != nil {
				return nil, err
			}
			// A right-sized core filter holding the same live set.
			live := ch.window + ch.window*(ch.lifeMul-1)/ch.stride
			c := core.NewFilter16(uint64(float64(live)/0.9)+1, core.Options{})
			return []rung{
				{"hashing", &hashRung{seed: seed}},
				{"minifilter", newMini16(c.SizeBytes() / 64)},
				{"core", coreRung{f: c}},
				{"elastic", elasticRung{e}},
			}, nil
		},
	}
}

// vqfdShards fixes the hosted filter's shard count so its geometry does
// not depend on the machine.
const vqfdShards = 2

// vqfdBinary: an in-process vqfd on loopback hosting one sharded filter,
// one binary-protocol client sending 512-key raw-u64 requests.
func vqfdBinary(z sizes) *workload {
	return &workload{
		name:    "vqfd-binary",
		top:     "service",
		rawKeys: true,
		pattern: mix(8, segShape{op: opContains, n: 512, live: 256},
			segShape{op: opInsert, n: 512}, segShape{op: opRemove, n: 512}),
		load:      0.70,
		setupReps: timeParts / 2,
		// With two Ps the server's connection goroutine runs on the
		// client's P in some runs and on the other in others, and every
		// round trip then waits for a cross-CPU wake-up: whole runs differ
		// about 2x. One P hands each request over on one thread.
		procs: 1,
		build: func(seed uint64) (system, error) {
			return newServiceSystem(service.Spec{
				Name: "bench", Kind: service.KindSharded, Capacity: z.vqfdItems, Shards: vqfdShards, Seed: seed,
			})
		},
		twins: func(seed uint64, sys system) ([]rung, error) {
			// vqf.NewSharded's sizing: n/0.9 slots split over the shards.
			c := core.NewSharded8(uint64(float64(z.vqfdItems)/0.9)+1, vqfdShards, core.Options{})
			f := vqf.NewSharded(z.vqfdItems, vqfdShards, vqf.WithSeed(seed))
			return []rung{
				{"hashing", &hashRung{seed: seed}},
				{"minifilter", newMini8(sys.capacity() / minifilter.B8Slots)},
				{"core", coreRung{f: c}},
				{"vqf", &facadeBatch{filterSystem: filterSystem{f}, raw: true, seed: seed}},
			}, wantBytes(sys.bytes(), c.SizeBytes()/64)
		},
	}
}
