// Package golden pins output bytes in tests by their sha256 digests, kept
// in a committed JSON file of name → hex digest. A test binary run with
// -update rewrites the file from the current outputs instead of checking
// them, so a change that moves bytes on purpose regenerates its digests with
//
//	go test ./<package> -run <Test> -update
//
// and names each moved digest in its change notes.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the pinned sha256 digests from the current outputs instead of checking them")

// File is one committed digest file. Check is safe for concurrent use, so
// parallel subtests can share one File.
type File struct {
	path string
	mu   sync.Mutex
	// pinned is the file's content; under -update it also collects the
	// digests checked in this run, and entries no check visited are kept.
	pinned map[string]string
}

// Open loads the digests pinned at path. Under -update a missing file is
// created, and the file is rewritten once t and all its subtests finish.
func Open(t *testing.T, path string) *File {
	t.Helper()
	f := &File{path: path, pinned: map[string]string{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f.pinned); err != nil {
			t.Fatalf("golden: %s: %v", path, err)
		}
	case !*update || !errors.Is(err, fs.ErrNotExist):
		t.Fatalf("golden: %v", err)
	}
	if *update {
		t.Cleanup(func() {
			out, err := json.MarshalIndent(f.pinned, "", "  ")
			if err == nil {
				err = os.WriteFile(path, append(out, '\n'), 0o644)
			}
			if err != nil {
				t.Errorf("golden: rewrite %s: %v", path, err)
			}
		})
	}
	return f
}

// Check fails t unless the sha256 of data equals the digest pinned under
// name; under -update it records the digest instead.
func (f *File) Check(t *testing.T, name string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	f.mu.Lock()
	defer f.mu.Unlock()
	if *update {
		f.pinned[name] = got
		return
	}
	switch want, ok := f.pinned[name]; {
	case !ok:
		t.Errorf("golden: %s has no digest pinned in %s (regenerate with -update)", name, f.path)
	case got != want:
		t.Errorf("golden: %s hashes to %s, pinned %s in %s: its bytes moved", name, got, want, f.path)
	}
}
