package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	key := "0123abcd-run"
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("Get on empty store = ok %v, err %v", ok, err)
	}
	want := []byte(`{"cycles": 42}`)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, ok %v, err %v", got, ok, err)
	}
	// Write-once: a second Put (even with different bytes — impossible
	// for honest content-addressed callers) leaves the record alone.
	if err := s.Put(key, []byte("other")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Get(key)
	if !bytes.Equal(got, want) {
		t.Errorf("Put overwrote an existing record: %q", got)
	}
	if n, err := s.Len(); n != 1 || err != nil {
		t.Errorf("Len = %d, %v", n, err)
	}
}

// TestReplaceOverwrites checks Replace rewrites an existing record that
// Put would leave alone, through the same atomic rename.
func TestReplaceOverwrites(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	key := "0123abcd-run"
	if err := s.Put(key, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"cycles": 42}`)
	if err := s.Replace(key, want); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get(key); err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get after Replace = %q, ok %v, err %v", got, ok, err)
	}
	if err := s.Replace("../x", want); err == nil {
		t.Error("Replace accepted an invalid key")
	}
	if n, err := s.Len(); n != 1 || err != nil {
		t.Errorf("Len = %d, %v; want the one record", n, err)
	}
}

func TestVersionIsolation(t *testing.T) {
	root := t.TempDir()
	s1, err := Open(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("deadbeef", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(root, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get("deadbeef"); ok {
		t.Error("v2 store sees v1 record")
	}
}

func TestRejectsBadKeysAndVersions(t *testing.T) {
	if _, err := Open(t.TempDir(), "a/b"); err == nil {
		t.Error("Open accepted a version with a separator")
	}
	if _, err := Open("", "v1"); err == nil {
		t.Error("Open accepted an empty root")
	}
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "ab", "../../../../etc/passwd", "ABCDEF", "abcd/ef", "..aa", "a.bcd"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put accepted key %q", key)
		}
		if _, _, err := s.Get(key); err == nil {
			t.Errorf("Get accepted key %q", key)
		}
	}
}

// TestConcurrentPutGet exercises the atomic-rename protocol: many
// goroutines writing and reading the same keys must never observe a
// partial record.
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	record := func(i int) ([]byte, string) {
		return bytes.Repeat([]byte{byte('a' + i)}, 4096), fmt.Sprintf("%08x", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				data, key := record(i)
				if err := s.Put(key, data); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := s.Get(key)
				if err != nil || !ok || !bytes.Equal(got, data) {
					t.Errorf("key %s: ok %v err %v, %d bytes", key, ok, err, len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	// No temp droppings left behind.
	matches, err := filepath.Glob(filepath.Join(s.Dir(), "*", "put-*.tmp"))
	if err != nil || len(matches) != 0 {
		t.Errorf("leftover temp files: %v (%v)", matches, err)
	}
}

// TestCorruptRecordSurfacesAsData ensures Get hands corrupt bytes back
// to the caller (the cache layers above decide to treat decode failures
// as misses) rather than failing.
func TestCorruptRecordSurfacesAsData(t *testing.T) {
	s, err := Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	key := "feedface-run"
	if err := os.MkdirAll(filepath.Join(s.Dir(), key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), key[:2], key+".json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.Get(key)
	if err != nil || !ok || string(data) != "not json" {
		t.Fatalf("Get = %q, ok %v, err %v", data, ok, err)
	}
}
