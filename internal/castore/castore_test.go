package castore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func keyFor(payload string) string {
	h := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(h[:])
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "cas"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"results":[1,2,3]}`)
	key := keyFor("round-trip")
	wrote, err := s.Put(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("first Put reported wrote=false")
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys = %v, want [%s]", keys, key)
	}
}

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(keyFor("absent")); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get on empty store = %v, want ErrNotExist", err)
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", strings.Repeat("zz", 32), "../../etc/passwd"} {
		if _, err := s.Get(bad); err == nil || errors.Is(err, ErrNotExist) {
			t.Errorf("Get(%q) = %v, want invalid-key error", bad, err)
		}
		if _, err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) succeeded, want invalid-key error", bad)
		}
	}
}

func TestDuplicatePutIdenticalIsNoop(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := keyFor("dup")
	payload := []byte("same bytes")
	if _, err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	wrote, err := s.Put(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if wrote {
		t.Fatal("duplicate identical Put reported wrote=true")
	}
}

func TestDuplicatePutMismatchFailsLoudly(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := keyFor("collide")
	if _, err := s.Put(key, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(key, []byte("two")); err == nil {
		t.Fatal("Put of different payload under same key succeeded; want collision error")
	}
	// The original entry must be intact.
	got, err := s.Get(key)
	if err != nil || string(got) != "one" {
		t.Fatalf("after failed Put, Get = %q, %v; want original payload", got, err)
	}
}

// corrupt mutates the on-disk entry file through fn and asserts Get
// reports a CorruptError (a miss, never a wrong payload).
func corruptCase(t *testing.T, name string, fn func(path string, raw []byte) []byte) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key := keyFor("victim-" + name)
		payload := []byte(`{"shard":"results payload for corruption test"}`)
		if _, err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(s.Dir(), key)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, fn(path, raw), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = s.Get(key)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("Get on corrupted entry = %v, want CorruptError", err)
		}
		// A corrupt entry must be replaceable by a fresh Put.
		wrote, err := s.Put(key, payload)
		if err != nil || !wrote {
			t.Fatalf("Put over corrupt entry = wrote=%v err=%v, want rewrite", wrote, err)
		}
		got, err := s.Get(key)
		if err != nil || string(got) != string(payload) {
			t.Fatalf("after rewrite, Get = %q, %v", got, err)
		}
	})
}

func TestCorruptionIsAMiss(t *testing.T) {
	corruptCase(t, "truncated", func(_ string, raw []byte) []byte {
		return raw[:len(raw)-5]
	})
	corruptCase(t, "flipped-payload-byte", func(_ string, raw []byte) []byte {
		out := append([]byte(nil), raw...)
		out[len(out)-1] ^= 0x40
		return out
	})
	corruptCase(t, "mangled-header", func(_ string, raw []byte) []byte {
		return append([]byte("not a castore file\n"), raw...)
	})
	corruptCase(t, "trailing-garbage", func(_ string, raw []byte) []byte {
		return append(append([]byte(nil), raw...), []byte("extra")...)
	})
	corruptCase(t, "empty-file", func(_ string, raw []byte) []byte {
		return nil
	})
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "cas")
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("store dir not created: %v", err)
	}
}

// withLength rewrites an entry's header length field to n.
func withLength(raw []byte, n int64) []byte {
	header, body, _ := bytes.Cut(raw, []byte("\n"))
	fields := strings.Fields(string(header))
	fields[4] = strconv.FormatInt(n, 10)
	return append([]byte(strings.Join(fields, " ")+"\n"), body...)
}

// TestCorruptLengthIsBounded is a regression test: a header length past
// the bytes the entry file holds is a corrupt entry, never the size of an
// allocation. A length of 1<<62 made Get panic in make.
func TestCorruptLengthIsBounded(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := keyFor("length")
	payload := []byte("payload whose length field lies")
	if _, err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1 << 62, int64(len(payload)) + 1} {
		if err := os.WriteFile(path, withLength(raw, n), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := s.Get(key)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Reason != "bad length" {
			t.Errorf("length %d: Get = %v, want a CorruptError with reason %q", n, err, "bad length")
		}
	}
}

// FuzzCastoreGet overwrites a stored entry's file with arbitrary bytes:
// Get must return the original payload byte for byte or a *CorruptError,
// and never panic.
func FuzzCastoreGet(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := keyFor("fuzz")
	payload := []byte(`{"shard":"results payload under fuzzing"}`)
	if _, err := s.Put(key, payload); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(s.Dir(), key)
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-5])
	f.Add(withLength(raw, 1<<62))
	f.Fuzz(func(t *testing.T, entry []byte) {
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(key)
		var ce *CorruptError
		switch {
		case err == nil && !bytes.Equal(got, payload):
			t.Fatalf("Get returned %q, want the stored payload or a CorruptError", got)
		case err != nil && !errors.As(err, &ce):
			t.Fatalf("Get = %v, want the stored payload or a CorruptError", err)
		}
	})
}
