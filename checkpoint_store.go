package spt

import (
	"spt/internal/checkpoint"
	"spt/internal/isa"
	"spt/internal/mem"
)

// CheckpointStore caches functional fast-forward checkpoints across runs.
// Share one store across a grid (EvalOptions.Checkpoints, or the default
// RunJobs wiring) and each distinct (workload, skip distance, program
// content) prefix executes exactly once no matter how many scheme x model
// cells restore from it, concurrently or not. Sampled runs share it too:
// the store keeps one warm walker per program, extends it from window to
// window, and caches each window's checkpoint, so a sampled grid walks
// each workload's prefix once instead of once per cell.
type CheckpointStore struct {
	inner *checkpoint.Store
}

// NewCheckpointStore returns a store. dir, if non-empty, persists
// architectural snapshots on disk (one .ckpt file per prefix) so later
// processes skip cold functional passes; empty keeps the cache in memory
// only. Disk entries are integrity-checked against a functional replay
// when microarchitectural warming is needed, so simulation results are
// bit-identical whether or not the files existed.
func NewCheckpointStore(dir string) *CheckpointStore {
	return &CheckpointStore{inner: checkpoint.NewStore(dir)}
}

// CheckpointStoreStats counts store activity. Builds is the number of
// functional passes executed — for a shared store over an N-scheme x
// M-model grid it equals the number of distinct workload prefixes, or for
// a sampled grid the number of workloads, the direct evidence each prefix
// ran once, not NxM times. A sampled run that asks for a window behind the
// store's walk starts one more pass.
type CheckpointStoreStats struct {
	Builds    uint64 // functional fast-forward passes executed
	MemHits   uint64 // checkpoints served from memory
	DiskHits  uint64 // checkpoints served from disk without a pass
	DiskSaves uint64 // snapshot files written
}

// Stats returns a snapshot of the store's counters.
func (s *CheckpointStore) Stats() CheckpointStoreStats {
	st := s.inner.Stats()
	return CheckpointStoreStats{
		Builds:    st.Builds,
		MemHits:   st.MemHits,
		DiskHits:  st.DiskHits,
		DiskSaves: st.DiskSaves,
	}
}

// checkpointFor returns the checkpoint for p's first o.SkipInstructions
// instructions, warm, via the run's store (building an unshared one-shot
// checkpoint when no store is configured).
func (o Options) checkpointFor(p *isa.Program) (*checkpoint.Checkpoint, error) {
	hcfg := mem.DefaultHierarchyConfig()
	if o.Checkpoints != nil {
		return o.Checkpoints.inner.Get(p, o.SkipInstructions, hcfg, true)
	}
	return checkpoint.Build(p, o.SkipInstructions, hcfg, true)
}

// windowCheckpoints returns the source of a sampled run's window
// checkpoints, asked for in ascending skip order. With a store it takes
// them from the store's kept walker for p, hashing p once for the whole
// run; without one it walks a private walker.
func (o Options) windowCheckpoints(p *isa.Program, hcfg mem.HierarchyConfig) func(skip uint64) (*checkpoint.Checkpoint, error) {
	if o.Checkpoints != nil {
		key := checkpoint.KeyFor(p, 0, hcfg, true)
		return func(skip uint64) (*checkpoint.Checkpoint, error) {
			key.Skip = skip
			return o.Checkpoints.inner.Window(p, key)
		}
	}
	w := checkpoint.NewWalker(p, hcfg, true)
	return func(skip uint64) (*checkpoint.Checkpoint, error) {
		if err := w.Advance(skip); err != nil {
			return nil, err
		}
		return w.Checkpoint(), nil
	}
}
