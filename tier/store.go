package tier

import (
	"fmt"

	"github.com/congestedclique/cliqueapsp/store"
)

// Store adapts a *store.Dir to cold opening: it resolves a tenant/version
// pair to the snapshot's path and opens a Reader over the file. It embeds
// the Dir, so one value satisfies both the oracle Manager's SnapshotStore
// interface (persist/restore) and its ColdOpener interface (tiered
// serving) — cmd/ccserve wires a single Store into both roles.
type Store struct{ *store.Dir }

// NewStore wraps d for tiered serving.
func NewStore(d *store.Dir) *Store { return &Store{Dir: d} }

// OpenCold opens a Reader over one persisted snapshot version of tenant,
// with a hot-row cache of cacheRows rows. The version recorded in the
// file's own header must match the requested one — the filename is the
// caller's claim, the header is the file's, and a disagreement means the
// file was tampered with or misplaced (store.ErrCorrupt), the same rule
// store.Dir.LoadVersion applies to hot restores.
func (s *Store) OpenCold(tenant string, version uint64, cacheRows int) (*Reader, error) {
	snapPath, err := s.SnapshotPath(tenant, version)
	if err != nil {
		return nil, err
	}
	r, err := Open(snapPath, cacheRows)
	if err != nil {
		return nil, err
	}
	if r.Version() != version {
		r.Close()
		return nil, fmt.Errorf("%w: %s records version %d, expected %d",
			store.ErrCorrupt, snapPath, r.Version(), version)
	}
	return r, nil
}
