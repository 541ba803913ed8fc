package service

import (
	"bufio"
	"net"
	"time"
)

// Binary data plane. Each connection gets one goroutine that loops:
// read frame → hash keys → one batch call on the target filter → write
// response. All per-connection buffers (frame, decoded keys, hashes,
// result bools, response body) are reused across frames, and every frame
// costs two syscalls (one read, one write) for any batch size — the
// amortization that makes the batched wire path beat per-key HTTP by an
// order of magnitude. In steady state every frame — lookup, insert or
// remove, on every kind — allocates nothing.

// serveBinary accepts binary-protocol connections until the listener
// closes (shutdown).
func (s *Server) serveBinary() {
	for {
		c, err := s.binLn.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		if s.draining.Load() {
			c.Close()
			continue
		}
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.connWg.Add(1)
		go s.handleConn(c)
	}
}

// connScratch is the per-connection reusable state.
type connScratch struct {
	frame  []byte
	req    request
	hashes []uint64
	found  []bool
	vals   []byte
	body   []byte
}

// handleConn serves one binary connection until EOF, error, or drain.
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
		s.connWg.Done()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	var sc connScratch
	for !s.draining.Load() {
		payload, err := readFrame(br, sc.frame, s.cfg.MaxFrameBytes)
		sc.frame = payload[:cap(payload)]
		if err != nil {
			// EOF, drain nudge (read deadline), or a framing violation: in
			// every case the stream is unrecoverable — stop reading. Anything
			// already acknowledged has been flushed.
			break
		}
		if err := s.handleFrame(payload, bw, &sc); err != nil {
			break
		}
		// Flush when no further request is already buffered: pipelining
		// clients get one flush per burst, request-response clients one per
		// frame. Acknowledgment = bytes handed to the kernel here.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				break
			}
		}
	}
	bw.Flush()
}

// handleFrame decodes and executes one request frame, writing its
// response into bw. Returns an error only for unrecoverable connection
// states; per-request problems are reported in-band via status codes.
func (s *Server) handleFrame(payload []byte, bw *bufio.Writer, sc *connScratch) error {
	if err := parseRequest(payload, &sc.req); err != nil {
		// Framing was intact (length prefix consumed) but the payload is
		// malformed; report and keep the connection.
		return writeResponse(bw, 0, statusBadRequest, 0, nil)
	}
	req := &sc.req
	if req.op == opPing {
		return writeResponse(bw, opPing, statusOK, 0, nil)
	}
	if s.draining.Load() {
		return writeResponse(bw, req.op, statusDraining, 0, nil)
	}
	h, err := s.reg.lookup(req.name)
	if err != nil {
		return writeResponse(bw, req.op, statusOf(err), 0, nil)
	}
	sc.hashes = h.HashUint64s(req.keys, sc.hashes)
	deadline := time.Now().Add(s.cfg.OpTimeout)
	n := 0
	sc.body = sc.body[:0]
	switch req.op {
	case opInsert:
		n, err = h.Insert(deadline, sc.hashes)
	case opContains:
		sc.found, err = h.Contains(deadline, sc.hashes, sc.found)
		n = len(sc.hashes)
		sc.body = packBools(sc.body, sc.found)
	case opRemove:
		n, err = h.Remove(deadline, sc.hashes)
	case opPut:
		n, err = h.Put(deadline, sc.hashes, req.vals, req.flags&flagUpdate != 0)
	case opGet:
		sc.vals, sc.found, err = h.Get(deadline, sc.hashes, sc.vals, sc.found)
		n = len(sc.hashes)
		sc.body = append(packBools(sc.body, sc.found), sc.vals...)
	default:
		return writeResponse(bw, req.op, statusBadRequest, 0, nil)
	}
	if err != nil {
		return writeResponse(bw, req.op, statusOf(err), 0, nil)
	}
	return writeResponse(bw, req.op, statusOK, uint32(n), sc.body)
}
