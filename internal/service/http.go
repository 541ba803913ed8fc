package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"vqf"
)

// HTTP API. Admin surface:
//
//	POST   /v1/filters          create (body: Spec)           → Info
//	GET    /v1/filters          list                          → {"filters":[Info]}
//	GET    /v1/filters/{name}   inspect                       → Info
//	DELETE /v1/filters/{name}   drop                          → 204
//	POST   /v1/snapshot         snapshot registry to DataDir  → summary
//	POST   /v1/restore          reload registry from DataDir  → summary
//	GET    /healthz             liveness                      → {"status":"ok"}
//
// Data surface (per filter; keys as strings and/or raw uint64s):
//
//	POST /v1/filters/{name}/insert    {"keys":[...], "u64":[...]}            → {"inserted":n}
//	POST /v1/filters/{name}/contains  {"keys":[...], "u64":[...]}            → {"found":[bool]}
//	POST /v1/filters/{name}/remove    {"keys":[...], "u64":[...]}            → {"removed":n}
//	POST /v1/filters/{name}/put       {"u64":[...], "values":[0..255], "update":bool} → {"stored":n}
//	POST /v1/filters/{name}/get       {"keys":[...], "u64":[...]}            → {"found":[bool],"values":[n]}
//	POST /v1/filters/{name}/compact   {}                                     → {"levels_before","levels_after","levels_merged"}
//	POST /v1/filters/{name}/freeze    {}                                     → {"levels_before","levels_after","levels_frozen","fuse_levels"}
//
// Observability: /metrics (Prometheus text) and /debug/vqf/events (JSON)
// are rebuilt from the live registry per scrape, so filters created after
// startup are exported without re-mounting anything.
func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/filters", s.handleCreate)
	mux.HandleFunc("GET /v1/filters", s.handleList)
	mux.HandleFunc("GET /v1/filters/{name}", s.handleInspect)
	mux.HandleFunc("DELETE /v1/filters/{name}", s.handleDrop)
	mux.HandleFunc("POST /v1/filters/{name}/{op}", s.handleData)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/restore", s.handleRestore)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vqf/events", func(w http.ResponseWriter, r *http.Request) {
		vqf.EventsHandler(s.reg.EventSources()).ServeHTTP(w, r)
	})
	return mux
}

// maxJSONBody bounds request bodies (a 512-key u64 batch is ~10 KiB; this
// allows far larger bulk loads while stopping unbounded reads).
const maxJSONBody = 64 << 20

// httpError writes a JSON error with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// decodeJSON decodes the request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// opError maps a service error to its HTTP response.
func opError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrExists):
		httpError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrWrongKind), errors.Is(err, ErrNotElastic):
		httpError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, ErrTimeout):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
	}
}

// scrapeBuffer holds a /metrics response until the hosted locks are released.
type scrapeBuffer struct {
	bytes.Buffer
	header http.Header
	code   int
}

func (b *scrapeBuffer) Header() http.Header  { return b.header }
func (b *scrapeBuffer) WriteHeader(code int) { b.code = code }

// handleMetrics renders one vqf.MetricsHandler over the live registry
// with every hosted filter's data-plane lock held, taken in name order
// (every other path holds at most one, so scrapes cannot deadlock), and
// writes the response once they are released.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	buf := scrapeBuffer{header: w.Header(), code: http.StatusOK}
	func() {
		hs := s.reg.sorted()
		sources := make(map[string]vqf.Source, len(hs))
		for _, h := range hs {
			_ = h.acquire(time.Time{}, false) // no deadline: cannot fail
			defer h.release(false)
			sources[h.spec.Name] = h.filter
		}
		vqf.MetricsHandler(sources).ServeHTTP(&buf, r)
	}()
	w.WriteHeader(buf.code)
	w.Write(buf.Bytes())
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := decodeJSON(r, &spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	info, err := s.reg.Create(spec)
	if err != nil {
		opError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"filters": s.reg.List()})
}

func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	h, err := s.reg.get(r.PathValue("name"))
	if err != nil {
		opError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, h.info())
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Drop(r.PathValue("name")); err != nil {
		opError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// dataRequest is the shared data-plane body: string keys, raw uint64
// keys, or both (u64 keys are processed after string keys; responses
// follow that order).
type dataRequest struct {
	Keys   []string `json:"keys,omitempty"`
	U64    []uint64 `json:"u64,omitempty"`
	Values []int    `json:"values,omitempty"`
	Update bool     `json:"update,omitempty"`
}

// hashKeys renders the request's combined key list as filter hashes.
func (d *dataRequest) hashKeys(h *hosted) []uint64 {
	hs := make([]uint64, 0, len(d.Keys)+len(d.U64))
	hs = h.HashStrings(d.Keys, hs[:0])
	if len(d.U64) > 0 {
		tail := h.HashUint64s(d.U64, nil)
		hs = append(hs, tail...)
	}
	return hs
}

func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
	h, err := s.reg.get(r.PathValue("name"))
	if err != nil {
		opError(w, err)
		return
	}
	var body dataRequest
	if err := decodeJSON(r, &body); err != nil {
		httpError(w, http.StatusBadRequest, "decoding keys: %v", err)
		return
	}
	hs := body.hashKeys(h)
	deadline := time.Now().Add(s.cfg.OpTimeout)
	var n int
	var found []bool
	var out any
	switch r.PathValue("op") {
	case "insert":
		n, err = h.Insert(deadline, hs)
		out = map[string]int{"inserted": n}
	case "contains":
		found, err = h.Contains(deadline, hs, nil)
		out = map[string]any{"found": found}
	case "remove":
		n, err = h.Remove(deadline, hs)
		out = map[string]int{"removed": n}
	case "put":
		if len(body.Values) != len(hs) {
			httpError(w, http.StatusBadRequest, "%d values for %d keys", len(body.Values), len(hs))
			return
		}
		vals := make([]byte, len(body.Values))
		for i, v := range body.Values {
			if v < 0 || v > 255 {
				httpError(w, http.StatusBadRequest, "value %d outside [0,255]", v)
				return
			}
			vals[i] = byte(v)
		}
		n, err = h.Put(deadline, hs, vals, body.Update)
		out = map[string]int{"stored": n}
	case "get":
		var vals []byte
		vals, found, err = h.Get(deadline, hs, nil, nil)
		ints := make([]int, len(vals))
		for i, v := range vals {
			ints[i] = int(v)
		}
		out = map[string]any{"found": found, "values": ints}
	case "compact":
		var res vqf.CompactionResult
		res, err = h.Compact(deadline)
		out = map[string]int{
			"levels_before": res.LevelsBefore,
			"levels_after":  res.LevelsAfter,
			"levels_merged": res.LevelsMerged,
		}
	case "freeze":
		var res vqf.FreezeResult
		res, err = h.Freeze(deadline)
		out = map[string]int{
			"levels_before": res.LevelsBefore,
			"levels_after":  res.LevelsAfter,
			"levels_frozen": res.LevelsFrozen,
			"fuse_levels":   res.FuseLevels,
		}
	default:
		httpError(w, http.StatusNotFound, "unknown data op %q", r.PathValue("op"))
		return
	}
	if err != nil {
		opError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	man, err := s.SnapshotNow()
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	var bytes int64
	for _, e := range man.Filters {
		bytes += e.Bytes
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dir": s.cfg.DataDir, "filters": len(man.Filters), "bytes": bytes,
		"saved_at": man.SavedAt,
	})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	n, warns, err := s.ReloadFromDisk()
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	warnStrs := make([]string, len(warns))
	for i, werr := range warns {
		warnStrs[i] = werr.Error()
	}
	writeJSON(w, http.StatusOK, map[string]any{"filters": n, "warnings": warnStrs})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.draining.Load()})
}
