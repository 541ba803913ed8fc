package service

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures one Server.
type Config struct {
	// HTTPAddr is the admin+data HTTP listen address (host:port; port 0
	// picks a free port). Empty means "127.0.0.1:0".
	HTTPAddr string
	// BinaryAddr is the binary-protocol listen address; empty disables the
	// binary listener.
	BinaryAddr string
	// DataDir is the snapshot directory. Empty disables persistence: no
	// warm restart, no periodic or shutdown snapshots, and the snapshot
	// admin endpoint reports failure.
	DataDir string
	// SnapshotEvery, when positive, snapshots the registry to DataDir on
	// this period in addition to the final shutdown snapshot.
	SnapshotEvery time.Duration
	// OpTimeout bounds how long a data-plane, compact or freeze request may
	// wait for its filter's lock (queued behind a snapshot or another
	// request on a sequential filter); past it the request is rejected
	// without touching the filter. Admin reads and snapshots carry no
	// deadline. 0 means 5s.
	OpTimeout time.Duration
	// MaxFrameBytes bounds one binary frame's payload; 0 means
	// DefaultMaxFrameBytes.
	MaxFrameBytes int
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Server hosts a Registry behind the two listeners. Create with New,
// start with Start, stop with Shutdown.
type Server struct {
	cfg Config
	reg *Registry
	// loadWarns holds warm-restart warnings for the daemon to log.
	loadWarns []error

	httpLn  net.Listener
	binLn   net.Listener
	httpSrv *http.Server

	// draining flips once at shutdown: binary connections stop reading new
	// frames after their in-flight response is flushed.
	draining atomic.Bool
	// connMu/conns tracks live binary connections so Shutdown can nudge
	// reads blocked on idle sockets; connWg waits for their handlers to
	// finish flushing acknowledged responses.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWg sync.WaitGroup

	// stopBg stops the periodic-snapshot loop.
	stopBg chan struct{}
	bgWg   sync.WaitGroup

	// snapMu serializes whole-registry snapshots (periodic vs admin vs
	// shutdown) so two writers never race on the manifest.
	snapMu sync.Mutex
}

// New builds a server, performing the warm restart from cfg.DataDir when
// one is configured: every filter recorded in the snapshot manifest is
// deserialized and hosted again under its original name, kind and seed.
// Per-filter load problems become Warnings, never construction errors.
func New(cfg Config) (*Server, error) {
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 5 * time.Second
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &Server{
		cfg:    cfg,
		reg:    NewRegistry(),
		conns:  map[net.Conn]struct{}{},
		stopBg: make(chan struct{}),
	}
	if cfg.DataDir != "" {
		reg, warns := LoadDir(cfg.DataDir)
		s.reg = reg
		s.loadWarns = warns
	}
	return s, nil
}

// Registry returns the server's filter registry (shared, live).
func (s *Server) Registry() *Registry { return s.reg }

// Warnings returns the warm-restart warnings collected by New.
func (s *Server) Warnings() []error { return s.loadWarns }

// readHeaderTimeout bounds how long an HTTP client may take to send its
// request headers, so idle or trickling connections cannot pin server
// goroutines.
const readHeaderTimeout = 10 * time.Second

// Start binds the listeners and begins serving. The bound addresses are
// available from HTTPAddr/BinaryAddr afterwards (useful with port 0).
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return fmt.Errorf("service: listen http %s: %w", s.cfg.HTTPAddr, err)
	}
	s.httpLn = ln
	s.httpSrv = &http.Server{Handler: s.httpHandler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		if err := s.httpSrv.Serve(s.httpLn); err != nil && err != http.ErrServerClosed {
			s.cfg.Logf("vqfd: http serve: %v", err)
		}
	}()
	if s.cfg.BinaryAddr != "" {
		bln, err := net.Listen("tcp", s.cfg.BinaryAddr)
		if err != nil {
			s.httpSrv.Close()
			return fmt.Errorf("service: listen binary %s: %w", s.cfg.BinaryAddr, err)
		}
		s.binLn = bln
		go s.serveBinary()
	}
	if s.cfg.DataDir != "" && s.cfg.SnapshotEvery > 0 {
		s.bgWg.Add(1)
		go s.snapshotLoop()
	}
	return nil
}

// HTTPAddr returns the bound HTTP address (after Start).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// BinaryAddr returns the bound binary-protocol address (after Start), or
// "" when the binary listener is disabled.
func (s *Server) BinaryAddr() string {
	if s.binLn == nil {
		return ""
	}
	return s.binLn.Addr().String()
}

// snapshotLoop runs the periodic snapshot until shutdown.
func (s *Server) snapshotLoop() {
	defer s.bgWg.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := s.SnapshotNow(); err != nil {
				s.cfg.Logf("vqfd: periodic snapshot: %v", err)
			}
		case <-s.stopBg:
			return
		}
	}
}

// SnapshotNow writes a snapshot of the current registry to the
// configured data directory.
func (s *Server) SnapshotNow() (Manifest, error) {
	if s.cfg.DataDir == "" {
		return Manifest{}, fmt.Errorf("service: no data directory configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.reg.SnapshotTo(s.cfg.DataDir)
}

// ReloadFromDisk replaces the registry contents with the last committed
// snapshot (the admin restore operation). Returns the number of filters
// loaded plus per-filter warnings.
func (s *Server) ReloadFromDisk() (int, []error, error) {
	if s.cfg.DataDir == "" {
		return 0, nil, fmt.Errorf("service: no data directory configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	reg, warns := LoadDir(s.cfg.DataDir)
	s.reg.replace(reg.m)
	return s.reg.Len(), warns, nil
}

// Shutdown drains and stops the server: stop accepting, let every
// in-flight request finish and flush its response, then — with the data
// plane quiescent — write the final snapshot. An insert acknowledged on
// either protocol before Shutdown returns is therefore in the snapshot;
// that is the warm-restart durability contract SIGTERM relies on. The
// context bounds the drain; expiry force-closes stragglers (losing only
// un-acknowledged work) but the final snapshot is still written.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil // already shut down
	}
	close(s.stopBg)

	// Binary plane: stop accepting, nudge idle reads, wait for handlers.
	if s.binLn != nil {
		s.binLn.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now()) // unblock reads waiting for a next frame
	}
	s.connMu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.connWg.Wait()
		close(drained)
	}()
	var drainErr error
	select {
	case <-drained:
	case <-ctx.Done():
		drainErr = fmt.Errorf("service: drain: %w", ctx.Err())
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
	}

	// HTTP plane: net/http's Shutdown drains in-flight handlers.
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("service: http drain: %w", err)
		}
	}
	s.bgWg.Wait()

	if s.cfg.DataDir != "" {
		if _, err := s.SnapshotNow(); err != nil {
			return fmt.Errorf("service: final snapshot: %w", err)
		}
	}
	return drainErr
}
