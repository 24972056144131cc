package segment

// The manifest is the single commit point of the durable store: a
// CRC-framed JSON document naming the live segment set and the WAL
// replay floor. It is always
// replaced atomically (tmp + fsync + rename + directory fsync), so a
// crash anywhere in a segment flush leaves either the old manifest or
// the new one — never a mix — and stale segment files from an aborted
// generation are garbage on disk that the next successful flush sweeps.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"threatraptor/internal/faultinject"
)

// ManifestFileName is the manifest's name inside a data directory.
const ManifestFileName = "MANIFEST"

const manifestVersion = 1

// SegmentRef names one live segment file and its role.
type SegmentRef struct {
	Role string `json:"role"`
	File string `json:"file"`
}

// Manifest describes the committed durable state of a data directory.
type Manifest struct {
	// Version is the manifest format version.
	Version int `json:"version"`
	// Seq is the flush generation; each successful segment flush
	// increments it and names its files seg-<seq>-<role>.seg.
	Seq int64 `json:"seq"`
	// WALFloor is the highest batch commit sequence covered by the
	// segments; WAL frames at or below it are skipped on replay and
	// eligible for garbage collection.
	WALFloor uint64 `json:"wal_floor_seq"`
	// Segments is the live segment set.
	Segments []SegmentRef `json:"segments"`
}

// Exists reports whether dir holds a committed manifest — i.e. whether
// a previous session persisted state worth recovering.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, ManifestFileName))
	return err == nil
}

// WriteManifest atomically replaces dir's manifest: the framed JSON is
// written to a temp file, fsynced, renamed over MANIFEST (through the
// FaultManifestRename point — the commit), and the directory fsynced.
func WriteManifest(dir string, m *Manifest) error {
	m.Version = manifestVersion
	doc, err := json.Marshal(m)
	if err != nil {
		return err
	}
	framed := make([]byte, 0, len(doc)+8)
	framed = binary.LittleEndian.AppendUint32(framed, uint32(len(doc)))
	framed = binary.LittleEndian.AppendUint32(framed, crc32Checksum(doc))
	framed = append(framed, doc...)

	tmp := filepath.Join(dir, ManifestFileName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(framed); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := faultinject.Hit(FaultManifestRename); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestFileName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// ReadManifest reads and validates dir's manifest. A missing manifest
// returns os.ErrNotExist; a damaged one returns a *CorruptError —
// manifest corruption is always fatal, recover-corrupt does not apply
// to the commit record itself.
func ReadManifest(dir string) (*Manifest, error) {
	if err := faultinject.Hit(FaultRecoveryRead); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, ManifestFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, &CorruptError{File: path, Offset: 0, Reason: "short manifest frame"}
	}
	ln := binary.LittleEndian.Uint32(data[0:])
	crc := binary.LittleEndian.Uint32(data[4:])
	if int(ln) != len(data)-8 {
		return nil, &CorruptError{File: path, Offset: 0, Reason: "manifest length disagrees with file size"}
	}
	doc := data[8:]
	if crc32Checksum(doc) != crc {
		return nil, &CorruptError{File: path, Offset: 8, Reason: "manifest checksum mismatch"}
	}
	var m Manifest
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, &CorruptError{File: path, Offset: 8, Reason: "manifest JSON: " + err.Error()}
	}
	if m.Version != manifestVersion {
		return nil, &CorruptError{File: path, Offset: 8, Reason: fmt.Sprintf("unsupported manifest version %d", m.Version)}
	}
	for _, ref := range m.Segments {
		if ref.File != filepath.Base(ref.File) || !strings.HasPrefix(ref.File, "seg-") {
			return nil, &CorruptError{File: path, Offset: 8, Reason: fmt.Sprintf("manifest references invalid segment file %q", ref.File)}
		}
	}
	return &m, nil
}

// RemoveStale deletes segment files in dir that the manifest does not
// reference — leftovers of flushes that crashed before their manifest
// commit, or segments superseded by a newer generation. Errors are
// returned but the sweep is best-effort: a failed unlink leaves garbage,
// not inconsistency.
func RemoveStale(dir string, m *Manifest) error {
	live := make(map[string]bool, len(m.Segments))
	for _, ref := range m.Segments {
		live[ref.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || live[name] {
			continue
		}
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") ||
			name == ManifestFileName+".tmp" {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
