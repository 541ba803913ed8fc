package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vqf/internal/workload"
)

// startServer runs a server on loopback ports for one test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	if cfg.BinaryAddr == "" {
		cfg.BinaryAddr = "127.0.0.1:0"
	}
	cfg.Logf = t.Logf
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

func TestSpecNormalize(t *testing.T) {
	bad := []Spec{
		{Name: "", Kind: KindPlain},
		{Name: "/etc/passwd", Kind: KindPlain},
		{Name: "../escape", Kind: KindPlain},
		{Name: strings.Repeat("x", 200), Kind: KindPlain},
		{Name: "ok", Kind: "bloom"},
		{Name: "ok", Kind: KindPlain, FPR: 2},
		{Name: "ok", Kind: KindPlain, FPR: 1e-9},
		{Name: "ok", Kind: KindPlain, Capacity: 1 << 40},
	}
	for _, s := range bad {
		if err := s.normalize(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	s := Spec{Name: "ok", Kind: KindSharded}
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Capacity != 1<<20 || s.Shards == 0 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	p := Spec{Name: "ok", Kind: KindPlain, Shards: 9}
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	if p.Shards != 0 {
		t.Fatalf("shards %d retained on non-sharded kind", p.Shards)
	}
}

func TestRegistryCRUD(t *testing.T) {
	reg := NewRegistry()
	for _, kind := range Kinds() {
		if _, err := reg.Create(Spec{Name: "f-" + string(kind), Kind: kind, Capacity: 1 << 10}); err != nil {
			t.Fatalf("create %s: %v", kind, err)
		}
	}
	if _, err := reg.Create(Spec{Name: "f-plain", Kind: KindPlain}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if got := reg.Len(); got != len(Kinds()) {
		t.Fatalf("Len %d, want %d", got, len(Kinds()))
	}
	infos := reg.List()
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Fatalf("List not sorted: %q before %q", infos[i-1].Name, infos[i].Name)
		}
	}
	if err := reg.Drop("f-map"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("f-map"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: %v", err)
	}
	if _, err := reg.get("f-map"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after drop: %v", err)
	}
}

// TestRegistryCreateSmallElastic creates elastic filters at capacities
// below one block's worth of items, which the registry accepts.
func TestRegistryCreateSmallElastic(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []uint64{1, 40} {
		name := fmt.Sprintf("e%d", n)
		if _, err := reg.Create(Spec{Name: name, Kind: KindElastic, Capacity: n}); err != nil {
			t.Fatalf("create elastic capacity %d: %v", n, err)
		}
	}
	if got := reg.Len(); got != 2 {
		t.Fatalf("Len %d, want 2", got)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	srv := startServer(t, Config{})
	admin := NewAdmin("http://" + srv.HTTPAddr())

	info, err := admin.Create(Spec{Name: "web", Kind: KindConcurrent, Capacity: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "web" || info.SlotCap == 0 {
		t.Fatalf("create info %+v", info)
	}
	if _, err := admin.Create(Spec{Name: "web", Kind: KindPlain}); err == nil {
		t.Fatal("duplicate create accepted over HTTP")
	}

	keys := workload.NewStream(7).Keys(3000)
	if n, err := admin.InsertU64("web", keys); err != nil || n != len(keys) {
		t.Fatalf("insert %d/%d: %v", n, len(keys), err)
	}
	found, err := admin.ContainsU64("web", keys[:100])
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("inserted key %d reported absent", i)
		}
	}
	if n, err := admin.RemoveU64("web", keys[:10]); err != nil || n != 10 {
		t.Fatalf("remove %d: %v", n, err)
	}

	infos, err := admin.List()
	if err != nil || len(infos) != 1 {
		t.Fatalf("list %v: %v", infos, err)
	}
	if infos[0].Count != uint64(len(keys)-10) {
		t.Fatalf("listed count %d, want %d", infos[0].Count, len(keys)-10)
	}

	// String keys go through the same data op.
	body := `{"keys":["alpha","beta"]}`
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/filters/web/insert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("string insert status %d", resp.StatusCode)
	}

	// /metrics exports the live registry.
	resp, err = http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `vqf_items{filter="web"}`) {
		t.Fatalf("metrics missing the hosted filter:\n%s", metrics)
	}

	if err := admin.Drop("web"); err != nil {
		t.Fatal(err)
	}
	if err := admin.Drop("web"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("drop of missing filter: %v", err)
	}
}

func TestBinaryEndToEnd(t *testing.T) {
	srv := startServer(t, Config{})
	if _, err := srv.Registry().Create(Spec{Name: "hot", Kind: KindSharded, Capacity: 1 << 14, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Registry().Create(Spec{Name: "kv", Kind: KindMap, Capacity: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	keys := workload.NewStream(9).Keys(5000)
	if n, err := c.Insert("hot", keys); err != nil || n != len(keys) {
		t.Fatalf("insert %d/%d: %v", n, len(keys), err)
	}
	found, err := c.Contains("hot", keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("key %d absent after insert", i)
		}
	}
	neg := workload.NewStream(10).Keys(5000)
	found, err = c.Contains("hot", neg, found)
	if err != nil {
		t.Fatal(err)
	}
	fps := 0
	for _, ok := range found {
		if ok {
			fps++
		}
	}
	if fps > len(neg)/50 { // ε≈0.5%, 2% is far outside plausible noise
		t.Fatalf("%d/%d false positives", fps, len(neg))
	}
	if n, err := c.Remove("hot", keys[:100]); err != nil || n != 100 {
		t.Fatalf("remove %d: %v", n, err)
	}

	// Map ops: put, get, update.
	mk := workload.NewStream(11).Keys(500)
	vals := make([]byte, len(mk))
	for i := range vals {
		vals[i] = byte(i)
	}
	if n, err := c.Put("kv", mk, vals); err != nil || n != len(mk) {
		t.Fatalf("put %d: %v", n, err)
	}
	gotVals, gotFound, err := c.Get("kv", mk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mk {
		if !gotFound[i] || gotVals[i] != vals[i] {
			t.Fatalf("get key %d: found=%v val=%d want %d", i, gotFound[i], gotVals[i], vals[i])
		}
	}
	for i := range vals {
		vals[i] = byte(i + 1)
	}
	if n, err := c.Update("kv", mk, vals); err != nil || n != len(mk) {
		t.Fatalf("update %d: %v", n, err)
	}
	gotVals, gotFound, err = c.Get("kv", mk, gotVals, gotFound)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mk {
		if !gotFound[i] || gotVals[i] != vals[i] {
			t.Fatalf("updated key %d: val=%d want %d", i, gotVals[i], vals[i])
		}
	}

	// In-band errors keep the connection usable.
	if _, err := c.Insert("nope", keys[:1]); err == nil || !strings.Contains(err.Error(), "no such filter") {
		t.Fatalf("missing filter: %v", err)
	}
	if _, err := c.Put("hot", mk[:1], vals[:1]); err == nil || !strings.Contains(err.Error(), "wrong filter kind") {
		t.Fatalf("put on non-map: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after in-band errors: %v", err)
	}
}

// TestBinaryConcurrentClients drives the data plane from many connections
// at once; run under -race this checks the server's shared state.
func TestBinaryConcurrentClients(t *testing.T) {
	srv := startServer(t, Config{})
	if _, err := srv.Registry().Create(Spec{Name: "par", Kind: KindSharded, Capacity: 1 << 16, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.BinaryAddr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			keys := workload.NewStream(uint64(100 + g)).Keys(2000)
			var found []bool
			for lo := 0; lo < len(keys); lo += 64 {
				hi := lo + 64
				if hi > len(keys) {
					hi = len(keys)
				}
				if _, err := c.Insert("par", keys[lo:hi]); err != nil {
					errs <- err
					return
				}
				if found, err = c.Contains("par", keys[lo:hi], found); err != nil {
					errs <- err
					return
				}
				for _, ok := range found {
					if !ok {
						errs <- errors.New("just-inserted key absent")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOpTimeout(t *testing.T) {
	srv := startServer(t, Config{OpTimeout: time.Nanosecond})
	if _, err := srv.Registry().Create(Spec{Name: "slow", Kind: KindPlain, Capacity: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	// A 1ns budget always expires before the lock check, so every data op
	// reports the timeout status on both protocols.
	admin := NewAdmin("http://" + srv.HTTPAddr())
	if _, err := admin.InsertU64("slow", []uint64{1}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("HTTP timeout: %v", err)
	}
	c, err := Dial(srv.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Insert("slow", []uint64{1}); err == nil || !strings.Contains(err.Error(), "op timeout") {
		t.Fatalf("binary timeout: %v", err)
	}
	// Admin ops don't carry the data-plane deadline.
	if _, err := admin.List(); err != nil {
		t.Fatalf("admin list under tiny op timeout: %v", err)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	srv, err := New(Config{HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestScrapeAndListDuringWrites reads every hosted filter's numbers —
// /metrics scrapes and Registry.List — while binary clients write to the
// sequential kinds. Under -race it checks that those reads take the
// hosted lock like the data plane does.
func TestScrapeAndListDuringWrites(t *testing.T) {
	srv := startServer(t, Config{})
	kinds := []Kind{KindPlain, KindElastic, KindMap}
	for _, kind := range kinds {
		if _, err := srv.Registry().Create(Spec{Name: string(kind), Kind: kind, Capacity: 1 << 14}); err != nil {
			t.Fatal(err)
		}
	}
	var writers sync.WaitGroup
	errs := make(chan error, len(kinds))
	for i, kind := range kinds {
		writers.Add(1)
		go func(i int, name string) {
			defer writers.Done()
			c, err := Dial(srv.BinaryAddr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			keys := workload.NewStream(uint64(200 + i)).Keys(200 * 64)
			for lo := 0; lo < len(keys); lo += 64 {
				if _, err := c.Insert(name, keys[lo:lo+64]); err != nil {
					errs <- err
					return
				}
			}
		}(i, string(kind))
	}
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		resp, err := http.Get("http://" + srv.HTTPAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		if infos := srv.Registry().List(); len(infos) != len(kinds) {
			t.Fatalf("List returned %d filters, want %d", len(infos), len(kinds))
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
