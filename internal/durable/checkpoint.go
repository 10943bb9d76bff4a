package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrNoCheckpoint reports a lookup of a name the store does not hold.
var ErrNoCheckpoint = errors.New("durable: no such checkpoint")

// CheckpointInfo describes one stored checkpoint.
type CheckpointInfo struct {
	// Name is the caller-chosen handle.
	Name string `json:"name"`
	// Hash is the SHA-256 of the payload; the blob file is named after it,
	// so two names holding identical state share one blob.
	Hash string `json:"hash"`
	// Size is the payload size in bytes (envelope excluded).
	Size int64 `json:"size"`
	// CreatedAt is when this name was (re)bound to the payload.
	CreatedAt time.Time `json:"created_at"`
}

// CheckpointStore is a named, content-addressed store of opaque checkpoint
// payloads (the service stores rl.Agent JSON). Blobs live in CRC-checked
// files keyed by content hash; an atomically rewritten index maps names to
// hashes, so every mutation is crash-safe.
type CheckpointStore struct {
	mu    sync.Mutex
	dir   string
	index map[string]CheckpointInfo
}

// OpenCheckpoints opens (creating if needed) the store in dir.
func OpenCheckpoints(dir string) (*CheckpointStore, error) {
	initMetrics()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create checkpoint dir: %w", err)
	}
	cs := &CheckpointStore{dir: dir, index: make(map[string]CheckpointInfo)}
	payload, err := readCheckedFile(cs.indexPath())
	switch {
	case err == nil:
		var entries []CheckpointInfo
		if err := json.Unmarshal(payload, &entries); err != nil {
			return nil, fmt.Errorf("durable: decode checkpoint index: %w", err)
		}
		for _, e := range entries {
			cs.index[e.Name] = e
		}
	case errors.Is(err, fs.ErrNotExist):
	default:
		return nil, fmt.Errorf("durable: read checkpoint index: %w", err)
	}
	return cs, nil
}

func (cs *CheckpointStore) indexPath() string { return filepath.Join(cs.dir, "index.json") }

func (cs *CheckpointStore) blobPath(hash string) string {
	return filepath.Join(cs.dir, hash+".ckpt")
}

// saveIndexLocked atomically rewrites the name → hash index.
func (cs *CheckpointStore) saveIndexLocked() error {
	entries := make([]CheckpointInfo, 0, len(cs.index))
	for _, e := range cs.index {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	payload, err := json.Marshal(entries)
	if err != nil {
		return fmt.Errorf("durable: encode checkpoint index: %w", err)
	}
	return writeFileAtomic(cs.indexPath(), payload)
}

// referencedLocked reports whether any name other than except maps to hash.
func (cs *CheckpointStore) referencedLocked(hash, except string) bool {
	for name, e := range cs.index {
		if name != except && e.Hash == hash {
			return true
		}
	}
	return false
}

// Put stores payload under name, overwriting a previous binding. The blob
// write and index update are each atomic; a crash between them leaves an
// unreferenced blob, which the next Put or Delete of that hash reuses or
// removes.
func (cs *CheckpointStore) Put(name string, payload []byte) (CheckpointInfo, error) {
	if !validName(name) {
		return CheckpointInfo{}, fmt.Errorf("durable: invalid checkpoint name %q (want %s)", name, namePattern)
	}
	if len(payload) == 0 || len(payload) > MaxPayload {
		return CheckpointInfo{}, fmt.Errorf("durable: checkpoint payload must be 1..%d bytes, got %d", MaxPayload, len(payload))
	}
	sum := sha256.Sum256(payload)
	hash := hex.EncodeToString(sum[:])
	info := CheckpointInfo{Name: name, Hash: hash, Size: int64(len(payload)), CreatedAt: time.Now().UTC()}

	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, err := os.Stat(cs.blobPath(hash)); errors.Is(err, fs.ErrNotExist) {
		if err := writeFileAtomic(cs.blobPath(hash), payload); err != nil {
			return CheckpointInfo{}, err
		}
	} else if err != nil {
		return CheckpointInfo{}, fmt.Errorf("durable: stat checkpoint blob: %w", err)
	}
	prev, had := cs.index[name]
	cs.index[name] = info
	if err := cs.saveIndexLocked(); err != nil {
		cs.index[name] = prev
		if !had {
			delete(cs.index, name)
		}
		return CheckpointInfo{}, err
	}
	if had && prev.Hash != hash && !cs.referencedLocked(prev.Hash, "") {
		os.Remove(cs.blobPath(prev.Hash)) // best-effort garbage collection
	}
	mCheckpointWrites.Inc()
	return info, nil
}

// Get returns the payload and metadata stored under name, re-verifying the
// blob's checksum and content hash on every read.
func (cs *CheckpointStore) Get(name string) ([]byte, CheckpointInfo, error) {
	cs.mu.Lock()
	info, ok := cs.index[name]
	cs.mu.Unlock()
	if !ok {
		return nil, CheckpointInfo{}, fmt.Errorf("%w: %q", ErrNoCheckpoint, name)
	}
	payload, err := readCheckedFile(cs.blobPath(info.Hash))
	if err != nil {
		return nil, CheckpointInfo{}, fmt.Errorf("durable: checkpoint %q: %w", name, err)
	}
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != info.Hash {
		return nil, CheckpointInfo{}, fmt.Errorf("durable: checkpoint %q: %w: content hash mismatch", name, ErrCorrupt)
	}
	mCheckpointReads.Inc()
	return payload, info, nil
}

// Delete unbinds name and removes its blob when no other name references it.
func (cs *CheckpointStore) Delete(name string) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	info, ok := cs.index[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoCheckpoint, name)
	}
	delete(cs.index, name)
	if err := cs.saveIndexLocked(); err != nil {
		cs.index[name] = info
		return err
	}
	if !cs.referencedLocked(info.Hash, name) {
		os.Remove(cs.blobPath(info.Hash)) // best-effort; an orphan blob is harmless
	}
	return nil
}

// List returns the stored checkpoints sorted by name.
func (cs *CheckpointStore) List() []CheckpointInfo {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]CheckpointInfo, 0, len(cs.index))
	for _, e := range cs.index {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
