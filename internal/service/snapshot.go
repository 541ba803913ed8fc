package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Snapshot persistence. A snapshot directory holds one serialized filter
// per hosted name (<name>.vqf, the existing envelope streams written by
// WriteTo) plus MANIFEST.json naming the set. Writes are crash-safe by
// ordering: every filter file is written to a .tmp sibling, fsynced and
// renamed before the manifest is; the manifest itself commits the same
// way, so a reader either sees the previous complete snapshot or the new
// one, never a torn mix. Each manifest entry records the filter's spec
// (kind, seed — required to reconstruct and to hash raw keys
// identically), byte length, CRC32 and item count, so truncated or
// corrupted filter files are detected and skipped at warm restart instead
// of being loaded as garbage.

// ManifestName is the snapshot directory's manifest file name.
const ManifestName = "MANIFEST.json"

// manifestVersion is bumped when the directory layout changes.
const manifestVersion = 1

// snapshotSuffix is the per-filter file suffix.
const snapshotSuffix = ".vqf"

// ManifestEntry records one serialized filter.
type ManifestEntry struct {
	Spec
	// File is the filter's file name within the snapshot directory.
	File string `json:"file"`
	// Bytes and CRC32 (IEEE) fingerprint the file's exact content.
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
	// Count is the filter's item count at snapshot time; a mismatch after
	// deserialization marks the file corrupt.
	Count uint64 `json:"count"`
}

// Manifest names the filters of one complete snapshot.
type Manifest struct {
	Version int             `json:"version"`
	SavedAt time.Time       `json:"saved_at"`
	Filters []ManifestEntry `json:"filters"`
}

// crcWriter tees writes into a CRC32 and a byte count.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// writeFileAtomic writes one filter to dir/name via tmp+fsync+rename and
// returns its length and CRC.
func writeFileAtomic(dir, name string, h *hosted) (int64, uint32, error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, err
	}
	cw := &crcWriter{w: bufio.NewWriterSize(f, 1<<20)}
	if _, err := h.filter.WriteTo(cw); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := cw.w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	return cw.n, cw.crc, nil
}

// syncDir fsyncs a directory so completed renames survive power loss.
// Errors are ignored on filesystems that reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// SnapshotTo writes a complete snapshot of the registry into dir,
// creating it as needed, and returns the committed manifest. Each filter
// is written under its own write lock (quiescent, so WriteTo's
// concurrent-writer check never trips); filters are locked one at a
// time, so traffic on the others continues while each is written. After
// the manifest commits, filter files from dropped names are removed.
func (r *Registry) SnapshotTo(dir string) (Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, err
	}
	man := Manifest{Version: manifestVersion, SavedAt: time.Now().UTC()}
	for _, h := range r.sorted() {
		file := h.spec.Name + snapshotSuffix
		_ = h.acquire(time.Time{}, true) // no deadline: cannot fail
		count := h.filter.Count()
		n, crc, err := writeFileAtomic(dir, file, h)
		h.release(true)
		if err != nil {
			return Manifest{}, fmt.Errorf("service: snapshot %q: %w", h.spec.Name, err)
		}
		man.Filters = append(man.Filters, ManifestEntry{
			Spec: h.spec, File: file, Bytes: n, CRC32: crc, Count: count,
		})
	}
	buf, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return Manifest{}, err
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return Manifest{}, err
	}
	if f, err := os.Open(tmp); err == nil {
		f.Sync()
		f.Close()
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return Manifest{}, err
	}
	syncDir(dir)
	removeStale(dir, man)
	return man, nil
}

// removeStale deletes filter files the committed manifest no longer
// references (dropped filters, abandoned tmp files).
func removeStale(dir string, man Manifest) {
	live := make(map[string]bool, len(man.Filters))
	for _, e := range man.Filters {
		live[e.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		name := de.Name()
		stale := strings.HasSuffix(name, ".tmp") ||
			(strings.HasSuffix(name, snapshotSuffix) && !live[name])
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// LoadDir reconstructs a registry from a snapshot directory (the warm
// restart). It is deliberately forgiving: a missing directory or
// manifest yields an empty registry; a corrupt manifest or a filter file
// whose length, CRC or item count disagrees with its manifest entry
// yields a warning for that unit while everything verifiable still
// loads. The daemon always starts; warnings tell the operator what was
// lost.
func LoadDir(dir string) (*Registry, []error) {
	reg := NewRegistry()
	var warns []error
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return reg, nil // cold start: nothing persisted yet
		}
		return reg, []error{fmt.Errorf("service: reading manifest: %w", err)}
	}
	var man Manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return reg, []error{fmt.Errorf("service: corrupt manifest (starting empty): %w", err)}
	}
	if man.Version != manifestVersion {
		return reg, []error{fmt.Errorf("service: manifest version %d unsupported (want %d)", man.Version, manifestVersion)}
	}
	m := make(map[string]*hosted, len(man.Filters))
	for _, e := range man.Filters {
		h, err := loadEntry(dir, e)
		if err != nil {
			warns = append(warns, fmt.Errorf("service: skipping %q: %w", e.Name, err))
			continue
		}
		m[e.Name] = h
	}
	reg.replace(m)
	return reg, warns
}

// loadEntry verifies and deserializes one manifest entry.
func loadEntry(dir string, e ManifestEntry) (*hosted, error) {
	spec := e.Spec
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	if filepath.Base(e.File) != e.File || !strings.HasSuffix(e.File, snapshotSuffix) {
		return nil, fmt.Errorf("manifest names invalid file %q", e.File)
	}
	buf, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) != e.Bytes {
		return nil, fmt.Errorf("file is %d bytes, manifest says %d (truncated?)", len(buf), e.Bytes)
	}
	if crc := crc32.ChecksumIEEE(buf); crc != e.CRC32 {
		return nil, fmt.Errorf("CRC mismatch (file %08x, manifest %08x)", crc, e.CRC32)
	}
	h, err := readHosted(spec, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	if got := h.filter.Count(); got != e.Count {
		return nil, fmt.Errorf("deserialized count %d, manifest says %d", got, e.Count)
	}
	return h, nil
}
