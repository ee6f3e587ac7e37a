package cirank

import (
	"fmt"
	"os"
	"path/filepath"

	"cirank/internal/mmapio"
)

// Open memory-maps the snapshot file at path and reconstructs an engine from
// it. The flat-array sections — CSR offsets, edges and out-sums, the
// importance and dampening vectors, and the star-index tables — are viewed
// directly from the read-only mapping without copying (where the platform
// permits; big-endian or misaligned hosts transparently decode copies), so
// opening is dominated by the variable-length sections and the checksum
// pass rather than by array decoding. The expensive build stages
// (PageRank, the star index, the text index) are skipped entirely;
// BuildStats.Source reports SourceMmap.
//
// Because the engine may alias the mapping, Close must be called once the
// engine is no longer in use, and never while queries are in flight. Only
// the v2 format is read: corrupt files, and files in any other format
// version, are rejected with an error wrapping ErrBadSnapshot. The mapped
// file must never be rewritten in place while the engine is open —
// truncating it makes the next search touching the lost pages die with
// SIGBUS; replace it with SaveFile, which renames a new file over the path
// and leaves the mapped one intact.
func Open(path string) (*Engine, error) {
	m, err := mmapio.Map(path)
	if err != nil {
		return nil, fmt.Errorf("cirank: opening snapshot: %w", err)
	}
	e, err := decodeV2(m.Data(), true)
	if err != nil {
		m.Close()
		return nil, err
	}
	e.closer = m.Close
	e.buildStats.Source = SourceMmap
	return e, nil
}

// SaveFile writes the engine's v2 snapshot (see Save) to path atomically:
// the image goes to a temporary file in the same directory, which is then
// renamed over path. A reader never sees a partial snapshot, and an engine
// that Open mapped from the previous file at path keeps searching its own
// (now unlinked) file, so re-saving under a live server and then reloading
// is safe. The file is created with mode 0644.
func (e *Engine) SaveFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644)
	if err == nil {
		err = e.Save(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
