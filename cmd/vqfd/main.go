// Command vqfd is the filter-as-a-service daemon: it hosts any number of
// named vector quotient filters (plain, concurrent, sharded, elastic, or
// key-value map geometry) behind two protocols — an HTTP/JSON admin+data
// API and a length-prefixed binary batch protocol — with snapshot
// persistence and warm restart.
//
// Usage:
//
//	vqfd -http 127.0.0.1:7071 -bin 127.0.0.1:7072 -data /var/lib/vqfd \
//	     -snapshot-interval 30s \
//	     -create '{"name":"hot","kind":"sharded","capacity":16777216}'
//
// On SIGINT/SIGTERM the daemon drains in-flight requests, writes a final
// snapshot, and exits; every insert acknowledged before the signal is in
// the snapshot and survives a restart with the same -data directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vqf/internal/service"
)

// specList collects repeatable -create flags.
type specList []service.Spec

func (l *specList) String() string { return fmt.Sprintf("%d specs", len(*l)) }

func (l *specList) Set(v string) error {
	var spec service.Spec
	if err := json.Unmarshal([]byte(v), &spec); err != nil {
		return fmt.Errorf("parsing spec %q: %w", v, err)
	}
	*l = append(*l, spec)
	return nil
}

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:7071", "admin+data HTTP listen address")
		binAddr  = flag.String("bin", "127.0.0.1:7072", "binary protocol listen address (empty disables)")
		dataDir  = flag.String("data", "", "snapshot directory (empty disables persistence)")
		snapIvl  = flag.Duration("snapshot-interval", 0, "periodic snapshot interval (0: only on shutdown)")
		opTO     = flag.Duration("optimeout", 5*time.Second, "per-request filter wait budget")
		maxFrame = flag.Int("maxframe", service.DefaultMaxFrameBytes, "binary frame payload limit in bytes")
		creates  specList
	)
	flag.Var(&creates, "create", "create a filter at startup (JSON spec; repeatable)")
	flag.Parse()

	log.SetPrefix("vqfd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	srv, err := service.New(service.Config{
		HTTPAddr:      *httpAddr,
		BinaryAddr:    *binAddr,
		DataDir:       *dataDir,
		SnapshotEvery: *snapIvl,
		OpTimeout:     *opTO,
		MaxFrameBytes: *maxFrame,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range srv.Warnings() {
		log.Printf("warm restart: %v", w)
	}
	if n := srv.Registry().Len(); n > 0 {
		log.Printf("warm restart: %d filter(s) restored from %s", n, *dataDir)
	}
	for _, spec := range creates {
		info, err := srv.Registry().Create(spec)
		if err != nil {
			// Warm restart already hosting the name is expected on restart with
			// the same command line; anything else is fatal misconfiguration.
			if errors.Is(err, service.ErrExists) {
				log.Printf("create %q: already hosted (restored from snapshot)", spec.Name)
				continue
			}
			log.Fatalf("create %q: %v", spec.Name, err)
		}
		log.Printf("created filter %q kind=%s capacity=%d", info.Name, info.Kind, info.Capacity)
	}

	// Catch signals before the listeners open: a client may act on the
	// address lines below as soon as they are printed, and a SIGTERM that
	// hit the default handler would skip the drain and the final snapshot,
	// losing inserts already acknowledged.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	// These lines are parsed by clients and tests: keep the format stable.
	log.Printf("admin/data HTTP on %s", srv.HTTPAddr())
	if a := srv.BinaryAddr(); a != "" {
		log.Printf("binary protocol on %s", a)
	}

	<-ctx.Done()
	stop()
	log.Printf("signal received; draining")

	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("shutdown complete")
}
