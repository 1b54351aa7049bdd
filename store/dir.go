package store

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// snapExt is the extension of published snapshot files; in-flight writes
// carry tmpExt until the atomic rename. staleIdxExt marks the row-index
// sidecars older releases wrote next to each snapshot; nothing reads them,
// and Open sweeps them with the temp files.
const (
	snapExt     = ".snap"
	tmpExt      = ".tmp"
	staleIdxExt = ".idx"
)

// tenantNamePat constrains tenant names so they embed safely as directory
// names. cmd/ccserve validates HTTP tenant names through ValidTenantName,
// so the serving layer and the on-disk layout accept exactly the same set.
var tenantNamePat = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidTenantName reports whether name fits the store's tenant alphabet
// (1-64 of [a-zA-Z0-9._-], starting alphanumeric).
func ValidTenantName(name string) bool { return tenantNamePat.MatchString(name) }

// defaultKeep is how many snapshot versions GC retains per tenant when
// Open is not told otherwise: the serving version plus one predecessor to
// roll back to.
const defaultKeep = 2

// Dir is an on-disk snapshot store: one subdirectory per tenant, one file
// per persisted snapshot version
// (<root>/<tenant>/<version as 16 hex digits>.snap). Saves are atomic
// (temp file + fsync + rename), so a reader never observes a partially
// written snapshot and a crash mid-save leaves only a temp file that the
// next Open sweeps. All methods are safe for concurrent use as long as no
// two goroutines Save the same tenant concurrently (the oracle Manager
// serializes per tenant by construction).
type Dir struct {
	root string
	keep int
}

// Option configures Open.
type Option func(*Dir)

// KeepVersions sets how many newest snapshot versions GC retains per
// tenant (minimum 1; default 2).
func KeepVersions(k int) Option {
	return func(d *Dir) { d.keep = k }
}

// Open prepares root as a snapshot store: the directory is created if
// missing and temp files abandoned by interrupted saves are removed.
func Open(root string, opts ...Option) (*Dir, error) {
	if root == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	d := &Dir{root: root, keep: defaultKeep}
	for _, opt := range opts {
		opt(d)
	}
	if d.keep < 1 {
		d.keep = 1
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := d.sweepTmp(); err != nil {
		return nil, err
	}
	return d, nil
}

// Root returns the store's root directory.
func (d *Dir) Root() string { return d.root }

// sweepTmp removes temp files left behind by crashes mid-save, plus the
// row-index sidecars older releases wrote next to each snapshot.
func (d *Dir) sweepTmp() error {
	tenants, err := d.Tenants()
	if err != nil {
		return err
	}
	for _, tenant := range tenants {
		entries, err := os.ReadDir(d.tenantDir(tenant))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !(strings.HasSuffix(name, tmpExt) || strings.HasSuffix(name, staleIdxExt)) {
				continue
			}
			if err := os.Remove(filepath.Join(d.tenantDir(tenant), name)); err != nil {
				return fmt.Errorf("store: sweeping stale file: %w", err)
			}
		}
	}
	return nil
}

func (d *Dir) tenantDir(tenant string) string { return filepath.Join(d.root, tenant) }

func (d *Dir) snapPath(tenant string, version uint64) string {
	return filepath.Join(d.tenantDir(tenant), fmt.Sprintf("%016x%s", version, snapExt))
}

// SnapshotPath returns the path of one persisted snapshot version. The file
// may not exist; callers open it and handle os.IsNotExist themselves.
func (d *Dir) SnapshotPath(tenant string, version uint64) (string, error) {
	if err := checkTenant(tenant); err != nil {
		return "", err
	}
	return d.snapPath(tenant, version), nil
}

func checkTenant(tenant string) error {
	if !tenantNamePat.MatchString(tenant) {
		return fmt.Errorf("%w: %q (want 1-64 of [a-zA-Z0-9._-], starting alphanumeric)", ErrInvalidName, tenant)
	}
	return nil
}

// Save persists s as tenant's snapshot for s.Version and garbage-collects
// versions beyond the configured retention. Publication is atomic: the
// snapshot is encoded to a temp file, synced, and renamed into place, so a
// concurrent Load sees either the previous set of versions or the new one,
// never a torn file.
func (d *Dir) Save(tenant string, s *Snapshot) error {
	if err := checkTenant(tenant); err != nil {
		return err
	}
	dir := d.tenantDir(tenant)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "save-*"+tmpExt)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := Encode(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.snapPath(tenant, s.Version)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	syncDir(dir) // make the rename durable, best-effort
	// Retention cleanup is best-effort: the snapshot is already durable
	// at this point, so a GC hiccup (a stale file with odd permissions, say)
	// must not report the save — which succeeded — as failed. Old versions
	// that linger are retried by the next Save's GC or an explicit GC call.
	_, _ = d.GC(tenant)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Failures are ignored: some filesystems reject directory fsync, and the
// rename itself already succeeded.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}

// Load decodes tenant's newest persisted snapshot. ErrNotFound when the
// tenant has none; decode failures (ErrCorrupt, ErrFormat) pass through.
func (d *Dir) Load(tenant string) (*Snapshot, error) {
	versions, err := d.Versions(tenant)
	if err != nil {
		return nil, err
	}
	if len(versions) == 0 {
		return nil, fmt.Errorf("%w: tenant %q", ErrNotFound, tenant)
	}
	return d.LoadVersion(tenant, versions[len(versions)-1])
}

// LoadVersion decodes one specific persisted snapshot version. The
// snapshot's recorded version must match the requested one — the filename
// is the caller's claim, the header is the file's own, and a disagreement
// (a misplaced or tampered file) fails with ErrCorrupt rather than serving
// another version's rows under this one's name. Decode checks the header
// against the file's length before it allocates the n×n matrix it
// promises, so a short file claiming a large n fails with ErrCorrupt
// without that allocation.
func (d *Dir) LoadVersion(tenant string, version uint64) (*Snapshot, error) {
	if err := checkTenant(tenant); err != nil {
		return nil, err
	}
	f, err := os.Open(d.snapPath(tenant, version))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: tenant %q version %d", ErrNotFound, tenant, version)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name(), err)
	}
	if s.Version != version {
		return nil, fmt.Errorf("%s: %w: records version %d, expected %d", f.Name(), ErrCorrupt, s.Version, version)
	}
	return s, nil
}

// Versions lists tenant's persisted snapshot versions in ascending order
// (empty when the tenant has none).
func (d *Dir) Versions(tenant string) ([]uint64, error) {
	if err := checkTenant(tenant); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(d.tenantDir(tenant))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	var versions []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapExt) {
			continue
		}
		// Accept exactly the names Save writes — 16 lowercase hex digits —
		// so a stray hex-ish file ("1.snap", "00000000000000FF.snap")
		// cannot fabricate a phantom version that wedges GC or points Load
		// at a file that does not exist.
		hex := strings.TrimSuffix(name, snapExt)
		v, err := strconv.ParseUint(hex, 16, 64)
		if err != nil || fmt.Sprintf("%016x", v) != hex {
			continue // foreign file; leave it alone
		}
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	return versions, nil
}

// Tenants lists the tenants with a directory in the store, sorted.
func (d *Dir) Tenants() ([]string, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var tenants []string
	for _, e := range entries {
		if e.IsDir() && tenantNamePat.MatchString(e.Name()) {
			tenants = append(tenants, e.Name())
		}
	}
	sort.Strings(tenants)
	return tenants, nil
}

// Delete removes every persisted snapshot of tenant. Deleting a tenant
// that has none is a no-op.
func (d *Dir) Delete(tenant string) error {
	if err := checkTenant(tenant); err != nil {
		return err
	}
	if err := os.RemoveAll(d.tenantDir(tenant)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GC removes tenant's oldest snapshot files beyond the retention count,
// returning how many were removed. Save calls it automatically.
func (d *Dir) GC(tenant string) (int, error) {
	versions, err := d.Versions(tenant)
	if err != nil {
		return 0, err
	}
	removed := 0
	for len(versions)-removed > d.keep {
		v := versions[removed]
		if err := os.Remove(d.snapPath(tenant, v)); err != nil {
			return removed, fmt.Errorf("store: %w", err)
		}
		removed++
	}
	return removed, nil
}
