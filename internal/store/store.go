// Package store is a content-addressed, persistent artifact cache for
// compiled BIST generators. A cache key is the SHA-256 of a canonical
// description of a compilation: a versioned JSON header holding the schema,
// the flip-flop init and the JSON encoding of the canonical expt.Config
// (whose tags carry exactly the fields that influence result bits),
// followed by the circuit netlist re-serialized into its canonical .bench
// form. Two submissions that differ only in whitespace, gate ordering
// produced by the same writer, or non-identity options (workers, telemetry,
// context) therefore map to the same key, while any option that changes a
// result bit changes it.
//
// Artifacts are published atomically: a compilation writes its files into a
// temporary directory next to the final location and renames it into place,
// so readers only ever observe complete entries, and concurrent publishers
// of the same key are harmless (first rename wins, the loser discards).
// Nothing is stored for a failed or cancelled compilation, so it never
// poisons its key.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/expt"
	"repro/internal/logic"
)

// SchemaVersion is baked into every key. Bump it when the meaning of a
// stored artifact changes (pipeline semantics, artifact formats), which
// invalidates every prior entry without touching the disk.
// v2: the key identity gained the fault model (expt.Config.FaultModel).
// v3: the generator and the pseudo-random windows are core's WindowLen
// long, not L_G, which changes generator.v and result.json wherever
// |T| > L_G.
// v4: the header embeds expt.Config's own JSON encoding, which omits zero
// fields (no stored artifact changed meaning, but every key moved).
const SchemaVersion = "wbist-store/v4"

// Key computes the content address of a compilation: cfg must already be in
// canonical form (expt.CanonicalConfig), netlist is the raw .bench source.
// The netlist is parsed and re-serialized so that formatting differences do
// not fragment the cache; a netlist that does not parse yields an error.
func Key(netlist []byte, init logic.V, cfg expt.Config) (string, error) {
	c, err := bench.Parse("netlist", bytes.NewReader(netlist))
	if err != nil {
		return "", fmt.Errorf("store: canonicalizing netlist: %w", err)
	}
	var canon bytes.Buffer
	if err := bench.Write(&canon, c); err != nil {
		return "", fmt.Errorf("store: re-serializing netlist: %w", err)
	}
	hdr, err := json.Marshal(struct {
		Schema string      `json:"schema"`
		Init   string      `json:"init"`
		Config expt.Config `json:"config"`
	}{SchemaVersion, init.String(), cfg})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(hdr)
	h.Write([]byte{0})
	h.Write(canon.Bytes())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Store is a content-addressed artifact cache rooted at a directory.
// Entries live at dir/<key[:2]>/<key>/<artifact files>; the two-character
// fan-out keeps any single directory small. All methods are safe for
// concurrent use.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) entryDir(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

func validKey(key string) error {
	if len(key) != 64 {
		return fmt.Errorf("store: malformed key %q", key)
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return fmt.Errorf("store: malformed key %q", key)
		}
	}
	return nil
}

// ErrInvalidName is wrapped by every error about an artifact name that is
// not a non-empty plain file name without a leading dot.
var ErrInvalidName = errors.New("store: invalid artifact name")

// validName applies the artifact naming rule: a non-empty plain base name
// with no leading dot, which also rules out "." and "..".
func validName(name string) error {
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return fmt.Errorf("%w %q", ErrInvalidName, name)
	}
	return nil
}

// Has reports whether a complete entry for key exists on disk.
func (s *Store) Has(key string) bool {
	if validKey(key) != nil {
		return false
	}
	st, err := os.Stat(s.entryDir(key))
	return err == nil && st.IsDir()
}

// Put publishes the artifacts for key atomically. Artifact names must be
// plain file names. If an entry already exists it is left untouched (the
// pipeline is deterministic, so the bytes are the same by construction).
func (s *Store) Put(key string, artifacts map[string][]byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	for name := range artifacts {
		if err := validName(name); err != nil {
			return err
		}
	}
	final := s.entryDir(key)
	if s.Has(key) {
		return nil
	}
	parent := filepath.Dir(final)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, ".tmp-"+key[:8]+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	for name, data := range artifacts {
		if err := os.WriteFile(filepath.Join(tmp, name), data, 0o644); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		if s.Has(key) {
			return nil // lost a publish race; the winner's entry is equivalent
		}
		return err
	}
	return nil
}

// Get reads every artifact of an entry. The second return is false when no
// entry exists.
func (s *Store) Get(key string) (map[string][]byte, bool, error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	dir := s.entryDir(key)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, false, err
		}
		out[e.Name()] = data
	}
	return out, true, nil
}

// GetArtifact reads a single artifact of an entry. A name Put would reject
// (including "." and "..") fails with ErrInvalidName before the disk is
// touched.
func (s *Store) GetArtifact(key, name string) ([]byte, bool, error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	if err := validName(name); err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(filepath.Join(s.entryDir(key), name))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// List returns every key present in the store, sorted.
func (s *Store) List() ([]string, error) {
	fanout, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, f := range fanout {
		if !f.IsDir() || len(f.Name()) != 2 {
			continue
		}
		sub, err := os.ReadDir(filepath.Join(s.dir, f.Name()))
		if err != nil {
			return nil, err
		}
		for _, e := range sub {
			if e.IsDir() && validKey(e.Name()) == nil {
				keys = append(keys, e.Name())
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}
