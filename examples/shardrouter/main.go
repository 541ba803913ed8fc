// Shard-router example: the value-association feature of the paper's
// conclusion ("the ability to associate a small value with each key makes
// the vector quotient filter a go-to data structure") — served out of
// process by the vqfd daemon.
//
// A storage frontend routes keys across shards. Instead of a full routing
// table, it keeps a key→shard-ID map: ~12 bits + 8 value bits per key
// instead of the key itself. Here the map lives in a vqfd service (started
// in-process on loopback, but the client code is exactly what a remote
// frontend would run): the router is created over the HTTP admin API and
// all routing traffic — bulk Put, batched Get, Update for rebalancing —
// rides the binary batch protocol through the shared service client.
// Misrouted requests (the ε fraction of fingerprint collisions) are
// detected at the shard and retried with a broadcast, so correctness is
// preserved while the common case needs one compact RPC.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"vqf"
	"vqf/internal/service"
	"vqf/internal/workload"
)

const (
	numShards = 16
	numKeys   = 500_000
	batchSize = 4096
)

// batches cuts keys into wire-sized batches.
func batches(keys []uint64) [][]uint64 {
	var out [][]uint64
	for lo := 0; lo < len(keys); lo += batchSize {
		hi := lo + batchSize
		if hi > len(keys) {
			hi = len(keys)
		}
		out = append(out, keys[lo:hi])
	}
	return out
}

func main() {
	// The daemon. A real deployment runs `vqfd` as its own process; the
	// client side below is identical either way.
	srv, err := service.New(service.Config{HTTPAddr: "127.0.0.1:0", BinaryAddr: "127.0.0.1:0"})
	if err != nil {
		panic(err)
	}
	if err := srv.Start(); err != nil {
		panic(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	admin := service.NewAdmin("http://" + srv.HTTPAddr())
	if _, err := admin.Create(service.Spec{Name: "router", Kind: service.KindMap, Capacity: numKeys}); err != nil {
		panic(err)
	}
	rpc, err := service.Dial(srv.BinaryAddr())
	if err != nil {
		panic(err)
	}
	defer rpc.Close()

	// Authoritative shard assignment (what a directory service would hold).
	keys := workload.NewStream(11).Keys(numKeys)
	authoritative := make(map[uint64]byte, numKeys)
	for i, k := range keys {
		authoritative[k] = byte(i % numShards)
	}

	// Bulk-load the router over the binary protocol: each frame carries one
	// key batch plus its shard IDs and becomes one batch put on the
	// daemon.
	vals := make([]byte, batchSize)
	for _, b := range batches(keys) {
		vals = vals[:len(b)]
		for i, k := range b {
			vals[i] = authoritative[k]
		}
		if n, err := rpc.Put("router", b, vals); err != nil || n != len(b) {
			panic(fmt.Sprintf("bulk put stored %d/%d: %v", n, len(b), err))
		}
	}
	info, err := admin.Inspect("router")
	if err != nil {
		panic(err)
	}
	fmt.Printf("router map: %d keys in %.1f KiB (%.2f bits/key) at load %.3f\n",
		info.Count, float64(info.SizeBytes)/1024,
		float64(info.SizeBytes*8)/float64(info.Count), info.LoadFactor)

	// Route every key with batched Gets; count how many land on their
	// authoritative shard.
	correct, misrouted, unknown := 0, 0, 0
	var shards []byte
	var found []bool
	for _, b := range batches(keys) {
		shards, found, err = rpc.Get("router", b, shards, found)
		if err != nil {
			panic(err)
		}
		for i, k := range b {
			switch {
			case !found[i]:
				unknown++ // impossible: stored keys always resolve
			case shards[i] == authoritative[k]:
				correct++
			default:
				misrouted++ // fingerprint collision returned another key's shard
			}
		}
	}
	fmt.Printf("routing stored keys: %d correct, %d misrouted (collision rate %.5f), %d unknown\n",
		correct, misrouted, float64(misrouted)/float64(numKeys), unknown)
	if unknown > 0 {
		panic("a stored key failed to resolve")
	}

	// Unknown keys should be rejected at the router, not broadcast.
	const probes = 200_000
	falseRoutes := 0
	for _, b := range batches(workload.NewStream(12).Keys(probes)) {
		shards, found, err = rpc.Get("router", b, shards, found)
		if err != nil {
			panic(err)
		}
		for i := range b {
			if found[i] {
				falseRoutes++
			}
		}
	}
	fmt.Printf("unknown keys routed anyway: %d/%d (%.5f — the filter FPR)\n",
		falseRoutes, probes, float64(falseRoutes)/float64(probes))

	// Shard rebalance: move every key of shard 3 to shard 7 using batched
	// Updates — no rebuild, no extra space, a few frames of traffic.
	var movedKeys []uint64
	for _, k := range keys {
		if authoritative[k] == 3 {
			movedKeys = append(movedKeys, k)
		}
	}
	moved := 0
	sevens := make([]byte, batchSize)
	for i := range sevens {
		sevens[i] = 7
	}
	for _, b := range batches(movedKeys) {
		n, err := rpc.Update("router", b, sevens[:len(b)])
		if err != nil {
			panic(err)
		}
		moved += n
	}
	for _, k := range movedKeys {
		authoritative[k] = 7
	}
	fmt.Printf("rebalanced %d keys from shard 3 to shard 7\n", moved)
	stillWrong := 0
	for _, b := range batches(keys) {
		shards, found, err = rpc.Get("router", b, shards, found)
		if err != nil {
			panic(err)
		}
		for i, k := range b {
			if !found[i] || shards[i] != authoritative[k] {
				stillWrong++
			}
		}
	}
	fmt.Printf("post-rebalance mismatches: %d (collision-scale only)\n", stillWrong)

	// The daemon exports every hosted filter on its own /metrics and
	// /debug/vqf/events endpoints; a frontend's monitoring scrapes the
	// service, not the client.
	resp, err := http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		panic(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		panic(err)
	}
	fmt.Println("scraped /metrics excerpt:")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "vqf_items{") || strings.HasPrefix(line, "vqf_bits_per_item{") ||
			strings.HasPrefix(line, "vqf_lookups_total{") || strings.HasPrefix(line, "vqf_block_occupancy_stddev{") {
			fmt.Println("  " + line)
		}
	}

	// The events endpoint always carries the process-wide ring ("global"),
	// which records the assembly-kernel dispatch decision at startup — handy
	// for confirming which code path a deployed daemon is actually running.
	resp, err = http.Get("http://" + srv.HTTPAddr() + "/debug/vqf/events")
	if err != nil {
		panic(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		panic(err)
	}
	var events map[string][]vqf.Event
	if err := json.Unmarshal(body, &events); err != nil {
		panic(err)
	}
	fmt.Printf("scraped /debug/vqf/events: %d global events", len(events["global"]))
	for _, ev := range events["global"] {
		fmt.Printf(" (%s: asm=%d fused-probe=%d available=%d)", ev.Kind, ev.A, ev.B, ev.C)
	}
	fmt.Println()
}
