// Package store is a content-addressed, persistent artifact cache for
// compiled BIST generators. A cache key is the SHA-256 of a canonical
// description of a compilation: a versioned JSON header listing exactly the
// expt.Config fields that influence result bits, followed by the circuit
// netlist re-serialized into its canonical .bench form. Two submissions that
// differ only in whitespace, gate ordering produced by the same writer, or
// non-identity options (workers, kernel, telemetry, context) therefore map
// to the same key, while any option that changes a result bit changes it.
//
// Artifacts are published atomically: a compilation writes its files into a
// temporary directory next to the final location and renames it into place,
// so readers only ever observe complete entries, and concurrent publishers
// of the same key are harmless (first rename wins, the loser discards).
//
// Do provides single-flight in-process de-duplication on top of the on-disk
// store, with the same eviction-on-error contract as the expt memo: a failed
// or cancelled compilation never poisons its key.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/expt"
	"repro/internal/logic"
)

// SchemaVersion is baked into every key. Bump it when the meaning of a
// stored artifact changes (pipeline semantics, artifact formats), which
// invalidates every prior entry without touching the disk.
// v2: the key identity gained the fault model (expt.Config.FaultModel).
const SchemaVersion = "wbist-store/v2"

// identity is the canonical key header: exactly the configuration fields
// that are part of a run's identity, in a fixed JSON field order. Fields
// deliberately absent — Telemetry, Workers, Kernel, SlabLanes, Ctx — do not
// change any result bit (see expt.Config); TestIdentityCoversConfig enforces
// that every expt.Config field is classified one way or the other.
type identity struct {
	Schema            string `json:"schema"`
	Init              string `json:"init"`
	LG                int    `json:"lg"`
	Seed              uint64 `json:"seed"`
	ATPGRandomLen     int    `json:"atpg_random_len"`
	ATPGNoCompaction  bool   `json:"atpg_no_compaction"`
	ATPGNoPodem       bool   `json:"atpg_no_podem"`
	RandomWindows     int    `json:"random_windows"`
	NoSampleFirst     bool   `json:"no_sample_first"`
	NoForceFullLength bool   `json:"no_force_full_length"`
	NoMatchOrdering   bool   `json:"no_match_ordering"`
	FaultModel        string `json:"fault_model"`
}

// identityFields and excludedFields classify every expt.Config field. A new
// Config field must be added to one of the two lists (and, if identity, to
// the identity struct and Key), which TestIdentityCoversConfig enforces.
var (
	identityFields = []string{
		"LG", "Seed", "ATPGRandomLen", "ATPGNoCompaction", "ATPGNoPodem",
		"RandomWindows", "NoSampleFirst", "NoForceFullLength", "NoMatchOrdering",
		"FaultModel",
	}
	excludedFields = []string{"Telemetry", "Workers", "Kernel", "SlabLanes", "Ctx"}
)

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
	hdr, err := json.Marshal(identity{
		Schema:            SchemaVersion,
		Init:              init.String(),
		LG:                cfg.LG,
		Seed:              cfg.Seed,
		ATPGRandomLen:     cfg.ATPGRandomLen,
		ATPGNoCompaction:  cfg.ATPGNoCompaction,
		ATPGNoPodem:       cfg.ATPGNoPodem,
		RandomWindows:     cfg.RandomWindows,
		NoSampleFirst:     cfg.NoSampleFirst,
		NoForceFullLength: cfg.NoForceFullLength,
		NoMatchOrdering:   cfg.NoMatchOrdering,
		FaultModel:        cfg.FaultModel,
	})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(hdr)
	h.Write([]byte{0})
	h.Write(canon.Bytes())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// flight is one in-process single-flight computation for a key.
type flight struct {
	done chan struct{}
	err  error
}

// Store is a content-addressed artifact cache rooted at a directory.
// Entries live at dir/<key[:2]>/<key>/<artifact files>; the two-character
// fan-out keeps any single directory small. All methods are safe for
// concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	flights map[string]*flight
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, flights: make(map[string]*flight)}, nil
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
		if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
			return fmt.Errorf("store: invalid artifact name %q", name)
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

// GetArtifact reads a single artifact of an entry.
func (s *Store) GetArtifact(key, name string) ([]byte, bool, error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	if name != filepath.Base(name) {
		return nil, false, fmt.Errorf("store: invalid artifact name %q", name)
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

// Do returns the artifacts for key, computing and publishing them at most
// once per key across concurrent callers. hit reports whether the result
// came from the store (disk or a concurrent flight) rather than this
// caller's compute. Like the expt memo, a failed flight is evicted before
// its joiners are released, so a transient error — including a cancelled
// context inside compute — never poisons the key.
func (s *Store) Do(key string, compute func() (map[string][]byte, error)) (artifacts map[string][]byte, hit bool, err error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	for {
		if got, ok, err := s.Get(key); err != nil {
			return nil, false, err
		} else if ok {
			return got, true, nil
		}
		s.mu.Lock()
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, false, f.err
			}
			// The flight published to disk; loop to read it back so every
			// caller observes the same on-disk bytes.
			continue
		}
		if s.Has(key) {
			// A flight finished between the Get above and the lock: its
			// entry reached disk before it left s.flights.
			s.mu.Unlock()
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()

		artifacts, err := compute()
		if err == nil {
			err = s.Put(key, artifacts)
		}
		f.err = err
		s.mu.Lock()
		delete(s.flights, key) // evict: success is on disk, failure must retry
		s.mu.Unlock()
		close(f.done)
		if err != nil {
			return nil, false, err
		}
		return artifacts, false, nil
	}
}
