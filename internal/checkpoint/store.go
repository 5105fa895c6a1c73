package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"spt/internal/emu"
	"spt/internal/isa"
	"spt/internal/mem"
)

// Key identifies one checkpoint: which workload, how far in, the exact
// program contents (so regenerated workloads never hit stale entries), and
// the warm state it carries: none, or a hierarchy built from Hier.
type Key struct {
	Workload string
	Skip     uint64
	Hash     [32]byte
	Warm     bool
	Hier     mem.HierarchyConfig
}

// KeyFor returns the key of p's checkpoint after skip instructions. It
// hashes p, so a caller that asks for many checkpoints of one program
// makes the key once and changes only Skip (see Store.Window).
func KeyFor(p *isa.Program, skip uint64, hcfg mem.HierarchyConfig, warm bool) Key {
	return Key{Workload: p.Name, Skip: skip, Hash: ProgramHash(p), Warm: warm, Hier: hcfg}
}

// StoreStats counts what the store did. Builds is the number of functional
// passes actually executed — a grid over N schemes x M models that shares a
// store shows Builds == number of distinct (workload, skip) prefixes, or,
// for sampled windows, the number of programs: the direct evidence that
// each prefix ran exactly once.
type StoreStats struct {
	Builds    uint64 // functional passes executed
	MemHits   uint64 // checkpoints served from memory
	DiskHits  uint64 // cold checkpoints served from disk without a pass
	DiskSaves uint64 // snapshot files written
}

// Store caches checkpoints. In memory it is a build-once map: concurrent
// requests for one key block on a single builder (singleflight), so a
// parallel grid executes each workload prefix exactly once. With a
// directory configured, Get's architectural snapshots also persist across
// processes.
//
// For sampled windows (Window) the store also keeps one walker per
// program and warm state: the walker of the furthest window it has
// produced, which the next window extends instead of walking the prefix
// again.
//
// Disk files hold only architectural state (pages, registers, PC) — warm
// cache/predictor state is rebuilt by functional replay when requested, and
// the replayed snapshot's content hash is cross-checked against the file's,
// so results are bit-identical whether or not the file existed.
type Store struct {
	dir string

	mu      sync.Mutex
	entries map[Key]*storeEntry
	walkers map[Key]*keptWalker // keyed with Skip 0

	builds    atomic.Uint64
	memHits   atomic.Uint64
	diskHits  atomic.Uint64
	diskSaves atomic.Uint64
}

type storeEntry struct {
	ready chan struct{} // closed when cp/err are set
	cp    *Checkpoint
	err   error
}

// keptWalker is a walker the store extends from window to window. mu
// serializes its use: a walk is one sequential pass.
type keptWalker struct {
	mu sync.Mutex
	w  *Walker // nil until the first window, and after a failed one
}

// NewStore returns a store. dir is the on-disk cache directory; empty means
// memory-only. The directory is created on first save.
func NewStore(dir string) *Store {
	return &Store{dir: dir, entries: make(map[Key]*storeEntry), walkers: make(map[Key]*keptWalker)}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Builds:    s.builds.Load(),
		MemHits:   s.memHits.Load(),
		DiskHits:  s.diskHits.Load(),
		DiskSaves: s.diskSaves.Load(),
	}
}

// Get returns the checkpoint for p's first skip instructions, building it
// at most once per key no matter how many goroutines ask. With warm set the
// checkpoint carries functionally warmed hierarchy/predictor state (built
// from hcfg); without it, a disk file can satisfy the request with no
// functional pass at all. Each new key is one fresh pass from reset; the
// walker is not kept.
func (s *Store) Get(p *isa.Program, skip uint64, hcfg mem.HierarchyConfig, warm bool) (*Checkpoint, error) {
	key := KeyFor(p, skip, hcfg, warm)
	return s.once(key, func() (*Checkpoint, error) { return s.build(key, p) })
}

// Window returns the checkpoint for key, a key of p (from KeyFor) whose
// Skip is the start of a sampled window. A window not cached yet extends
// the store's kept walker for p to key.Skip; if that walker is already
// past key.Skip, a fresh pass from reset builds the window, and the kept
// walker stays where it was. Either way the checkpoint is exactly what
// Build(p, key.Skip, key.Hier, key.Warm) returns.
//
// A walk never restarts from a stored checkpoint: Hierarchy.Clone drops
// the MSHR table, so a walker rebuilt from a checkpoint drifts away from
// the continuous walk that Build makes.
func (s *Store) Window(p *isa.Program, key Key) (*Checkpoint, error) {
	return s.once(key, func() (*Checkpoint, error) {
		wkey := key
		wkey.Skip = 0
		s.mu.Lock()
		kw := s.walkers[wkey]
		if kw == nil {
			kw = &keptWalker{}
			s.walkers[wkey] = kw
		}
		s.mu.Unlock()

		kw.mu.Lock()
		defer kw.mu.Unlock()
		w := kw.w
		if w == nil || w.Em.State.Retired > key.Skip {
			w = NewWalker(p, key.Hier, key.Warm)
			s.builds.Add(1)
		}
		if err := w.Advance(key.Skip); err != nil {
			if w == kw.w {
				kw.w = nil
			}
			return nil, err
		}
		if kw.w == nil {
			kw.w = w
		}
		return w.Checkpoint(), nil
	})
}

// once returns key's checkpoint, running build at most once per key no
// matter how many goroutines ask; the others wait for it and count a
// memory hit.
func (s *Store) once(key Key, build func() (*Checkpoint, error)) (*Checkpoint, error) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		<-e.ready
		if e.err == nil {
			s.memHits.Add(1)
		}
		return e.cp, e.err
	}
	e := &storeEntry{ready: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	e.cp, e.err = build()
	if e.err != nil {
		// Drop failed entries so a later call can retry (e.g. after the
		// user deletes a corrupt file).
		s.mu.Lock()
		if s.entries[key] == e {
			delete(s.entries, key)
		}
		s.mu.Unlock()
	}
	close(e.ready)
	return e.cp, e.err
}

// Release drops every checkpoint and kept walker the store holds for
// workload, so their memory can be reclaimed once nothing will ask for
// that workload again. A later request builds from reset.
func (s *Store) Release(workload string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.entries {
		if k.Workload == workload {
			delete(s.entries, k)
		}
	}
	for k := range s.walkers {
		if k.Workload == workload {
			delete(s.walkers, k)
		}
	}
}

// Holds reports whether the store holds a checkpoint or a kept walker for
// workload.
func (s *Store) Holds(workload string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.entries {
		if k.Workload == workload {
			return true
		}
	}
	for k := range s.walkers {
		if k.Workload == workload {
			return true
		}
	}
	return false
}

func (s *Store) build(key Key, p *isa.Program) (*Checkpoint, error) {
	disk, diskErr := s.load(key)
	if diskErr != nil {
		return nil, diskErr
	}
	if disk != nil && !key.Warm {
		s.diskHits.Add(1)
		return &Checkpoint{Snap: disk}, nil
	}

	cp, err := Build(p, key.Skip, key.Hier, key.Warm)
	if err != nil {
		return nil, err
	}
	s.builds.Add(1)

	if disk != nil {
		// Replayed and on-disk state must agree; a mismatch means the file
		// is stale or corrupt (the program hash matched, so the program is
		// not the culprit).
		want, err1 := disk.Hash()
		got, err2 := cp.Snap.Hash()
		if err1 != nil || err2 != nil || want != got {
			return nil, fmt.Errorf("checkpoint: on-disk snapshot for %s@%d does not match functional replay (stale or corrupt file %s)",
				key.Workload, key.Skip, s.path(key))
		}
		return cp, nil
	}
	if err := s.save(key, cp.Snap); err != nil {
		return nil, err
	}
	return cp, nil
}

// ckptMagic versions the checkpoint-file framing (which wraps the snapshot
// format versioned by its own magic).
const ckptMagic = "SPTCKPF1"

// path returns the file name for a key: workload, skip distance, and a
// short program-hash prefix for human-auditable cache directories.
func (s *Store) path(key Key) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, key.Workload)
	return filepath.Join(s.dir, fmt.Sprintf("%s-skip%d-%s.ckpt", name, key.Skip, hex.EncodeToString(key.Hash[:6])))
}

// load reads and verifies the snapshot file for key, if the store has a
// directory and the file exists. A missing file returns (nil, nil); a
// present-but-invalid file returns an error rather than silently
// rebuilding, so corruption is never papered over.
func (s *Store) load(key Key) (*emu.Snapshot, error) {
	if s.dir == "" {
		return nil, nil
	}
	b, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(b) < len(ckptMagic)+32+32+8 || string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("checkpoint: %s is not a checkpoint file", s.path(key))
	}
	b = b[len(ckptMagic):]
	var progHash, snapHash [32]byte
	copy(progHash[:], b[:32])
	copy(snapHash[:], b[32:64])
	skip := binary.LittleEndian.Uint64(b[64:72])
	body := b[72:]
	if progHash != key.Hash || skip != key.Skip {
		return nil, fmt.Errorf("checkpoint: %s was built for a different program or skip distance", s.path(key))
	}
	if sha256.Sum256(body) != snapHash {
		return nil, fmt.Errorf("checkpoint: %s failed its integrity check (corrupt)", s.path(key))
	}
	snap, err := emu.UnmarshalSnapshot(body)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", s.path(key), err)
	}
	return snap, nil
}

// save writes the snapshot file for key atomically (temp file + rename).
func (s *Store) save(key Key, snap *emu.Snapshot) error {
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	body, err := snap.MarshalBinary()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	sum := sha256.Sum256(body)
	out := make([]byte, 0, len(ckptMagic)+32+32+8+len(body))
	out = append(out, ckptMagic...)
	out = append(out, key.Hash[:]...)
	out = append(out, sum[:]...)
	out = binary.LittleEndian.AppendUint64(out, key.Skip)
	out = append(out, body...)

	tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.diskSaves.Add(1)
	return nil
}
