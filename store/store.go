// Package store persists published oracle snapshots: the paper's algorithms
// are expensive precomputations whose value is amortized over many queries,
// so a serving process must be able to restart — or re-admit an evicted
// tenant — without re-running a pipeline whose output it already paid for.
//
// The package has two layers:
//
//   - A versioned binary snapshot codec (Encode/Decode): graph, distance
//     rows, and provenance (algorithm, eps, seed, engine and format version)
//     under a CRC-32C checksum. Both directions stream the distance matrix
//     one row at a time, so an n=4096 estimate read from a file or a bytes
//     reader is never buffered twice; Decode checks the header against the
//     stream's length before it allocates the matrix.
//     DecodeLayout reads only the header, which is all a tiered reader
//     needs to locate any row (see RowIndex).
//   - Dir, an on-disk layout holding one file per tenant per snapshot
//     version. Saves publish atomically (write to a temp file, fsync,
//     rename), interrupted writes are swept on Open, and GC keeps the
//     newest K versions per tenant.
//
// The oracle package drives it: a Manager saves every snapshot a tenant
// publishes before it serves, rehydrates evicted tenants from Dir on their
// next access, and Manager.RestoreAll brings a whole fleet back up at boot
// before any rebuild runs (see cmd/ccserve's -datadir flag).
package store

import (
	"errors"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

var (
	// ErrCorrupt reports a snapshot that failed structural validation or its
	// checksum — truncated files, flipped bytes, impossible headers.
	ErrCorrupt = errors.New("store: corrupt snapshot")
	// ErrFormat reports a snapshot written by an unknown (typically newer)
	// codec format version.
	ErrFormat = errors.New("store: unsupported snapshot format")
	// ErrNotFound reports that a tenant has no persisted snapshot.
	ErrNotFound = errors.New("store: snapshot not found")
	// ErrInvalidName reports a tenant name outside the store's safe alphabet
	// — such a name can never have been persisted, so callers may treat it
	// like ErrNotFound on the read path.
	ErrInvalidName = errors.New("store: invalid tenant name")
)

// Snapshot is one persisted oracle build: the graph it was computed from,
// the published distance estimate, and enough provenance to trust — or
// reproduce — the artifact without re-running the engine.
type Snapshot struct {
	// Version is the oracle snapshot version the build published under; a
	// restored snapshot serves under the same version.
	Version uint64
	// Algorithm is the registry name of the algorithm that ran, and
	// FactorBound the approximation factor it proved for this estimate.
	Algorithm   string
	FactorBound float64
	// Eps is the accuracy slack the build ran with (0 = engine default),
	// and Seed the seed that drove its randomness — together with Algorithm
	// they make the artifact reproducible. SeedPinned records whether the
	// tenant had pinned that seed itself (vs. the engine deriving a fresh
	// one per rebuild): a restore must only re-pin seeds the owner pinned,
	// never freeze a derived one.
	Eps        float64
	Seed       int64
	SeedPinned bool
	// Engine is the cliqueapsp.EngineVersion stamp of the build.
	Engine string
	// BaseVersion and DeltaCount record incremental-repair provenance: a
	// repaired snapshot names the full build it descends from and how many
	// edge deltas were folded in; a from-scratch build carries (0, 0).
	BaseVersion uint64
	DeltaCount  int
	// Graph is the input graph (needed to route Path queries on restore).
	Graph *cliqueapsp.Graph
	// Distances is the published estimate.
	Distances *cliqueapsp.DistanceMatrix
}
