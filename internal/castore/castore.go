// Package castore is a content-addressed store of immutable blobs on the
// local filesystem, the persistence layer of the campaign result cache
// (FastFlip-style incremental campaigns, arXiv 2403.13989). Entries are
// keyed by the caller's content digest; the store guarantees durability
// (write-temp → fsync → rename → fsync-dir) and integrity (a self-check
// header over the payload), and treats every validation failure as a miss
// so a torn or corrupted entry can never surface as a wrong result.
package castore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// ErrNotExist reports a Get for a key with no entry on disk — the plain
// cache-miss case.
var ErrNotExist = errors.New("castore: entry does not exist")

// CorruptError reports an entry that exists but failed validation
// (truncated payload, checksum mismatch, mangled header). Callers treat
// it exactly like a miss — the entry is unusable — but may count it
// separately for metrics.
type CorruptError struct {
	Key    string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("castore: corrupt entry %s: %s", e.Key, e.Reason)
}

// magic is the entry header prefix; bumping the version invalidates every
// entry written by older code.
const magic = "castore v1"

// Store is a directory of content-addressed entries. Entry files are
// named by their key; concurrent Puts of the same key are safe (last
// rename wins, and all writers carry identical bytes or Put fails loudly).
type Store struct {
	dir string
}

// Open creates the store directory if needed and returns a handle.
// The parent directory is fsynced after creation so the store itself
// survives a crash right after Open.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether key is a hex digest usable as a filename.
func validKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(key)
	return err == nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key) }

// Get returns the payload stored under key. It returns ErrNotExist when
// no entry exists and a *CorruptError when an entry exists but fails
// validation; both mean "miss" to a cache consumer.
func (s *Store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("castore: invalid key %q", key)
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotExist
		}
		return nil, fmt.Errorf("castore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	br := bufio.NewReader(f)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, &CorruptError{Key: key, Reason: "unreadable header"}
	}
	payload, reason := parseEntry(key, strings.TrimSuffix(header, "\n"), br, fi.Size()-int64(len(header)))
	if reason != "" {
		return nil, &CorruptError{Key: key, Reason: reason}
	}
	return payload, nil
}

// parseEntry validates the header line and reads+verifies the payload
// from r, which holds rest bytes. It returns a non-empty reason on any
// validation failure.
func parseEntry(key, header string, r io.Reader, rest int64) ([]byte, string) {
	fields := strings.Fields(header)
	// "castore v1 <key> <payload-sha256> <payload-len>"
	if len(fields) != 5 || fields[0]+" "+fields[1] != magic {
		return nil, "bad header"
	}
	if fields[2] != key {
		return nil, "key mismatch"
	}
	// The length must be the bytes the file holds after the header: a
	// corrupt length must not size the payload buffer.
	n, err := strconv.Atoi(fields[4])
	if err != nil || int64(n) != rest {
		return nil, "bad length"
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, "truncated payload"
	}
	if hex.EncodeToString(sumOf(payload)) != fields[3] {
		return nil, "checksum mismatch"
	}
	return payload, ""
}

func sumOf(payload []byte) []byte {
	h := sha256.Sum256(payload)
	return h[:]
}

// Put stores payload under key. Entries are immutable: a Put over an
// existing valid entry verifies the payloads are byte-identical and
// returns wrote=false without touching disk; a mismatch is an error (two
// writers disagreeing about the same content address is a soundness bug,
// never silently resolved). A Put over a corrupt entry replaces it.
// The write is durable: temp file → Sync → rename → dir fsync.
func (s *Store) Put(key string, payload []byte) (wrote bool, err error) {
	if !validKey(key) {
		return false, fmt.Errorf("castore: invalid key %q", key)
	}
	if existing, err := s.Get(key); err == nil {
		if !bytes.Equal(existing, payload) {
			return false, fmt.Errorf("castore: key collision on %s: existing entry differs from new payload", key)
		}
		return false, nil
	} else if !errors.Is(err, ErrNotExist) {
		var ce *CorruptError
		if !errors.As(err, &ce) {
			return false, err
		}
		// corrupt entry: fall through and rewrite it
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-"+key[:8]+"-*")
	if err != nil {
		return false, fmt.Errorf("castore: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	header := fmt.Sprintf("%s %s %s %d\n", magic, key, hex.EncodeToString(sumOf(payload)), len(payload))
	if _, err = tmp.WriteString(header); err != nil {
		return false, fmt.Errorf("castore: %w", err)
	}
	if _, err = tmp.Write(payload); err != nil {
		return false, fmt.Errorf("castore: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return false, fmt.Errorf("castore: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return false, fmt.Errorf("castore: %w", err)
	}
	if err = os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return false, fmt.Errorf("castore: %w", err)
	}
	if err = syncDir(s.dir); err != nil {
		return false, err
	}
	return true, nil
}

// Keys lists every valid-looking entry key in the store (unordered).
func (s *Store) Keys() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	var keys []string
	for _, e := range ents {
		if !e.Type().IsRegular() || !validKey(e.Name()) {
			continue
		}
		keys = append(keys, e.Name())
	}
	return keys, nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry in
// it survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("castore: sync %s: %w", dir, err)
	}
	return nil
}
