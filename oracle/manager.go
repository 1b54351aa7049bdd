package oracle

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/internal/sched"
	"github.com/congestedclique/cliqueapsp/obs/trace"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

// DefaultColdCacheRows is the per-tenant hot-row cache bound used when
// ManagerConfig.ColdCacheRows is zero: 64 rows of 8·n bytes each — half a
// megabyte at n=1024, next to the 8 MB a hot tenant of that size holds.
const DefaultColdCacheRows = 64

var (
	// ErrTenantExists is returned by Create when the name is taken.
	ErrTenantExists = errors.New("oracle: tenant already exists")
	// ErrTenantNotFound is returned when no tenant has the requested name,
	// including tenants that have been deleted or evicted.
	ErrTenantNotFound = errors.New("oracle: tenant not found")
	// ErrOverCapacity is returned when admission would exceed MaxGraphs or
	// MaxTotalNodes and no idle tenant can be evicted to make room.
	ErrOverCapacity = errors.New("oracle: over capacity")
)

// ManagerConfig configures a Manager. The zero value hosts an unbounded
// number of tenants over a shared private engine.
type ManagerConfig struct {
	// MaxGraphs caps the number of hosted tenants (0 = unlimited). Creating
	// one more evicts the least-recently-used idle, unpinned tenant.
	MaxGraphs int
	// MaxTotalNodes bounds the summed node counts of all registered graphs
	// (0 = unlimited) — the serving state is Θ(n²) per tenant, so node
	// admission is the memory knob. Registering a graph that would exceed
	// the budget evicts idle, unpinned tenants in LRU order until it fits.
	MaxTotalNodes int
	// Base is the Config template every tenant starts from; TenantConfig
	// overrides are applied on top. A nil Base.Engine is replaced by one
	// engine shared across all tenants (the Engine is concurrency-safe, so
	// tenants never need one each).
	Base Config
	// OnEvict, when non-nil, observes every eviction by tenant name. Called
	// after the tenant has been removed from the table, concurrently with
	// its drain.
	OnEvict func(name string)
	// OnRebuild, when non-nil, observes every tenant's completed engine
	// build attempts — including deltas that fell back to a full rebuild —
	// tagged with the tenant name: the version built, the wall time it took,
	// and nil or the build error. It is called from the tenant's build
	// goroutine and must not block for long. It runs after a successful
	// build's snapshot is published (queries may already see it) but before
	// Tenant.Wait returns for that version, so a caller whose Wait returned
	// has observed the hook's effects.
	OnRebuild func(name string, version uint64, elapsed time.Duration, err error)
	// OnRepair, when non-nil, observes every tenant's completed incremental
	// repairs — publishes that patched the previous distances instead of
	// running the engine — tagged with the tenant name. A repair cannot
	// fail, so there is no error. Same ordering as OnRebuild.
	OnRepair func(name string, version uint64, elapsed time.Duration)
	// OnPhase, when non-nil, observes every pipeline phase of every tenant's
	// build or repair attempt after it finishes, tagged with the tenant
	// name: the phase name (as reported by the engine's progress
	// checkpoints) and its wall time. Phases arrive in execution order, for
	// failed builds too (the phases that completed before the failure), and
	// before OnRebuild/OnRepair for the same attempt. Same goroutine and
	// ordering contract as OnRebuild.
	OnPhase func(name, phase string, d time.Duration)
	// Store, when non-nil, makes the fleet durable: every snapshot a tenant
	// publishes is saved under the tenant's name, Get rehydrates evicted
	// tenants from their newest saved snapshot instead of reporting them
	// lost, RestoreAll brings the whole persisted fleet up at boot, and
	// Delete removes the tenant's saved snapshots along with the tenant.
	Store SnapshotStore
	// OnPersist, when non-nil, observes every snapshot save (called from the
	// tenant's build goroutine with the persisted version and nil or the
	// save error) and any failure to delete a tenant's saved snapshots
	// (version 0).
	OnPersist func(name string, version uint64, err error)
	// Cold, when non-nil (alongside Store), enables tiered serving:
	// node-budget evictions DEMOTE idle persisted tenants to cold
	// (disk-backed) serving instead of removing them, and restores or
	// rehydrations without budget headroom come up cold — zero O(n²)
	// decodes — instead of evicting their way in hot.
	Cold ColdOpener
	// ColdCacheRows bounds every cold tenant's hot-row cache in rows (each
	// row is 8·n bytes); 0 means DefaultColdCacheRows. It is also the node
	// budget a cold tenant is charged — min(ColdCacheRows, n) instead of n —
	// because resident rows, not graph size, are what a cold tenant keeps
	// in memory.
	ColdCacheRows int
	// BuildConcurrency caps how many tenant builds run at once across the
	// whole fleet (0 = unlimited). Builds over the cap queue FIFO-ish at the
	// admission gate; while queued, a tenant's uploads keep coalescing, so
	// the build that eventually runs uses the newest graph. Queue depth and
	// cumulative wait are reported by Stats (BuildsQueued, BuildWaitNS) —
	// with kernel parallelism bounded by the shared pool, this is the knob
	// that stops k rebuilding tenants from thrashing one machine.
	BuildConcurrency int
}

// ColdOpener opens one persisted snapshot version for disk-tier serving;
// *tier.Store (the store.Dir adapter) is the canonical implementation.
type ColdOpener interface {
	OpenCold(tenant string, version uint64, cacheRows int) (*tier.Reader, error)
}

// SnapshotStore is the persistence surface a Manager drives; *store.Dir is
// the canonical implementation. Save and Load move whole snapshots for one
// tenant, Versions is the cheap per-tenant probe (ascending persisted
// versions; empty = nothing persisted), Tenants lists every persisted
// tenant for RestoreAll, and Delete forgets one tenant's snapshots.
type SnapshotStore interface {
	Save(tenant string, s *store.Snapshot) error
	Load(tenant string) (*store.Snapshot, error)
	Versions(tenant string) ([]uint64, error)
	Tenants() ([]string, error)
	Delete(tenant string) error
}

// TenantConfig is one tenant's overrides over ManagerConfig.Base — the
// per-tenant algorithm/accuracy/seed choice is the point of multi-tenancy:
// workloads that want fewer rounds pick a coarser factor, workloads that
// want tighter distances pay for them.
type TenantConfig struct {
	// Algorithm overrides Base.Algorithm when non-empty.
	Algorithm cliqueapsp.Algorithm
	// Eps overrides Base.Eps (the accuracy slack) when > 0.
	Eps float64
	// Seed pins the rebuild seed when != 0 (appended as WithSeed).
	Seed int64
	// RunOptions are appended after Base.RunOptions and the Eps/Seed
	// overrides, so they win ties.
	RunOptions []cliqueapsp.RunOption
	// BuildTimeout overrides Base.BuildTimeout when > 0.
	BuildTimeout time.Duration
	// Quota bounds the tenant's query traffic (zero = unlimited), enforced
	// in Tenant.Dist/Batch/Path: a rejected call returns a *QuotaError
	// (matching ErrQuotaExceeded) carrying the retry delay. Like the rest
	// of the config it is remembered across eviction, so a rehydrated
	// tenant comes back throttled exactly as it left. Replaceable at
	// runtime with Tenant.SetQuota.
	Quota Quota
	// Pinned exempts the tenant from eviction (it still counts against the
	// budgets).
	Pinned bool
	// MaxNodes, when > 0, caps the node count of every graph the tenant
	// accepts (SetGraph fails above it). Like Quota it is remembered across
	// eviction, but not across a restart: snapshots do not record it.
	MaxNodes int
}

// Manager hosts many named, independently versioned Oracles behind one
// admission policy. All methods are safe for concurrent use. Queries run on
// Tenant handles resolved with Get; a handle that loses its tenant to
// Delete or eviction keeps answering from the last published snapshot (the
// underlying Oracle is closed, not freed), so readers never observe a
// half-torn-down oracle.
type Manager struct {
	cfg  ManagerConfig
	eng  *cliqueapsp.Engine
	gate *sched.Gate   // fleet-wide build admission (nil = unlimited)
	tick atomic.Uint64 // logical LRU clock

	// Persistence counters live outside mu: they are bumped from tenant
	// build goroutines (persist calls) and from rehydrating readers.
	persists        atomic.Uint64
	persistErrors   atomic.Uint64
	restored        atomic.Uint64
	restoreErrors   atomic.Uint64
	coldHits        atomic.Uint64
	rehydrateErrors atomic.Uint64
	throttled       atomic.Uint64 // quota rejections across all tenants, ever
	demotions       atomic.Uint64 // hot tenants swapped to cold serving
	promotions      atomic.Uint64 // cold tenants decoded back to hot
	fullDecodes     atomic.Uint64 // complete O(n²) snapshot decodes (Store.Load)

	// hydrating singleflights rehydrations per tenant name so concurrent
	// cold hits do one disk load and every caller returns a serving tenant.
	hydMu     sync.Mutex
	hydrating map[string]chan struct{}

	mu         sync.Mutex
	tenants    map[string]*Tenant
	totalNodes int
	created    uint64
	deleted    uint64
	evictions  uint64
	closed     bool
	// evictedCfg remembers evicted tenants' full configs (RunOptions,
	// BuildTimeout, Pinned, MaxNodes — state a snapshot cannot carry), so a
	// same-process rehydration brings the tenant back behaving identically.
	// Entries are dropped when the name is re-created, rehydrated, or
	// deleted. Cross-restart rehydrations fall back to the persisted
	// provenance (algorithm/eps/pinned seed).
	evictedCfg map[string]TenantConfig
}

// Tenant is one named oracle inside a Manager. Query methods mirror
// Oracle's and additionally refresh the tenant's LRU recency.
type Tenant struct {
	name    string
	m       *Manager
	o       *Oracle
	cfg     TenantConfig
	created time.Time

	lastUsed  atomic.Uint64           // manager clock tick of the last touch
	nodes     atomic.Int64            // admitted node budget of the registered graph
	evicted   atomic.Bool             // removed by eviction (vs. Delete/Close)
	lim       atomic.Pointer[limiter] // nil = unlimited; swapped whole by SetQuota
	throttled atomic.Uint64           // queries this tenant had rejected by quota
	setMu     sync.Mutex              // serializes admission + SetGraph per tenant
}

// NewManager returns an empty Manager.
func NewManager(cfg ManagerConfig) *Manager {
	eng := cfg.Base.Engine
	if eng == nil {
		eng = cliqueapsp.New()
	}
	return &Manager{
		cfg:        cfg,
		eng:        eng,
		gate:       sched.NewGate(cfg.BuildConcurrency),
		tenants:    make(map[string]*Tenant),
		hydrating:  make(map[string]chan struct{}),
		evictedCfg: make(map[string]TenantConfig),
	}
}

// Create adds a tenant under name. When MaxGraphs is reached the
// least-recently-used idle, unpinned tenant is evicted to make room;
// ErrOverCapacity is returned if none is evictable. On a store-backed
// Manager, creating a tenant REPLACES any previous persisted incarnation of
// the name: its snapshot files are removed, so stale data can never
// resurrect under a name the caller just configured afresh.
func (m *Manager) Create(name string, tc TenantConfig) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("oracle: empty tenant name")
	}
	if err := tc.Quota.Validate(); err != nil {
		return nil, err
	}

	// Persisted snapshots under this name are removed after the create
	// succeeds — but a create that FAILS must not have destroyed anything.
	wipe := false
	if m.cfg.Store != nil {
		// The flight keeps rehydrations (and Deletes) out for the whole
		// create, so none can restore the files the wipe below removes.
		release := m.lockHydration(name)
		defer release()
		if _, err := m.Peek(name); err != nil {
			wipe = true // hosted names keep their files: Create fails below
		}
	}

	t := m.newTenant(name, tc)
	if wipe {
		// Held until the wipe below is done (lock order: flight, setMu, mu).
		// Once the tenant is in the table a concurrent Get could SetGraph,
		// build, and persist; setMu parks that SetGraph until the old files
		// are gone, so the wipe can never swallow a fresh snapshot.
		t.setMu.Lock()
		defer t.setMu.Unlock()
	}
	if err := m.host(t, 0); err != nil {
		t.o.Close()
		return nil, err
	}
	if wipe {
		switch derr := m.cfg.Store.Delete(name); {
		case derr == nil, errors.Is(derr, store.ErrInvalidName):
			// An unstorable name has nothing on disk to replace.
		default:
			// Stale files we could not remove would resurrect the old
			// incarnation later; back the create out rather than host a
			// tenant with a haunted name.
			m.dropTenant(t)
			return nil, fmt.Errorf("oracle: clearing persisted snapshots of %q: %w", name, derr)
		}
	}
	return t, nil
}

// newTenant builds name's tenant and its oracle from the Base config with
// tc's overrides, reporting to the manager, without making it visible.
func (m *Manager) newTenant(name string, tc TenantConfig) *Tenant {
	cfg := m.cfg.Base
	cfg.Engine = m.eng
	cfg.gate = m.gate     // every tenant build passes the fleet admission gate
	cfg.name = name       // so build traces carry the tenant they belong to
	cfg.report = m.report // every finished build reaches the manager's hooks
	if tc.Algorithm != "" {
		cfg.Algorithm = tc.Algorithm
	}
	if tc.Eps > 0 {
		cfg.Eps = tc.Eps
	}
	opts := append([]cliqueapsp.RunOption(nil), cfg.RunOptions...)
	if tc.Seed != 0 {
		opts = append(opts, cliqueapsp.WithSeed(tc.Seed))
	}
	cfg.RunOptions = append(opts, tc.RunOptions...)
	if tc.BuildTimeout > 0 {
		cfg.BuildTimeout = tc.BuildTimeout
	}
	if m.cfg.Store != nil {
		eps := cfg.Eps // the single effective value every rebuild runs with
		seedPinned := tc.Seed != 0
		cfg.persist = func(p published) { m.persist(name, eps, seedPinned, p) }
	}
	t := &Tenant{name: name, m: m, o: New(cfg), cfg: tc, created: time.Now()}
	t.lim.Store(newLimiter(tc.Quota, nil))
	t.lastUsed.Store(m.tick.Add(1))
	return t
}

// host makes t visible in the table at a node charge of nodes. One eviction
// plan frees both the slot (MaxGraphs) and the node budget (MaxTotalNodes);
// if it cannot, nothing is touched and ErrOverCapacity is returned. Victims
// and demotions are drained outside the lock.
func (m *Manager) host(t *Tenant, nodes int) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if _, ok := m.tenants[t.name]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrTenantExists, t.name)
	}
	slots, free := 0, 0
	if m.cfg.MaxGraphs > 0 {
		slots = len(m.tenants) - m.cfg.MaxGraphs + 1
	}
	if m.cfg.MaxTotalNodes > 0 && nodes > 0 {
		free = m.totalNodes + nodes - m.cfg.MaxTotalNodes
	}
	var victims []*Tenant
	var demotes []demotion
	if slots > 0 || free > 0 {
		victims, demotes = m.evictLocked(max(slots, 0), max(free, 0), nil)
	}
	var err error
	switch {
	case m.cfg.MaxGraphs > 0 && len(m.tenants) >= m.cfg.MaxGraphs:
		err = fmt.Errorf("%w: %d graphs served, no idle tenant to evict", ErrOverCapacity, m.cfg.MaxGraphs)
	case free > 0 && m.totalNodes+nodes > m.cfg.MaxTotalNodes:
		err = fmt.Errorf("%w: %d nodes requested over a budget of %d (%d in use)",
			ErrOverCapacity, nodes, m.cfg.MaxTotalNodes, m.totalNodes)
	default:
		t.nodes.Store(int64(nodes))
		m.totalNodes += nodes
		m.tenants[t.name] = t
		m.created++
		delete(m.evictedCfg, t.name) // this incarnation's config supersedes any remembered one
	}
	m.mu.Unlock()
	m.drain(victims)
	m.drainDemotes(demotes)
	return err
}

// Get resolves a tenant by name and refreshes its LRU recency. With a
// Store configured, a name that is not hosted — typically because LRU
// eviction reclaimed it — is rehydrated from its newest persisted snapshot
// before being returned: the eviction cost a disk read, not the tenant.
func (m *Manager) Get(name string) (*Tenant, error) {
	t, err := m.Peek(name)
	if err != nil {
		if m.cfg.Store == nil || !errors.Is(err, ErrTenantNotFound) {
			return nil, err
		}
		if t, err = m.rehydrate(name); err != nil {
			return nil, err
		}
	}
	t.touch()
	return t, nil
}

// Peek resolves a tenant by name WITHOUT refreshing its LRU recency. Use it
// for monitoring lookups (stats, listings): a dashboard scraping every
// tenant must not overwrite the recency ordering that query traffic
// establishes, or eviction would pick victims by poll phase instead of by
// actual idleness.
func (m *Manager) Peek(name string) (*Tenant, error) {
	m.mu.Lock()
	t, ok := m.tenants[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	return t, nil
}

// Names returns the hosted tenant names in sorted order.
func (m *Manager) Names() []string {
	m.mu.Lock()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)
	return names
}

// Delete removes a tenant and drains its build loop. Outstanding Tenant
// handles keep answering queries from the last published snapshot. With a
// Store configured the tenant's persisted snapshots are removed too —
// unlike eviction, Delete means gone, so the name must not resurrect on
// the next Get: deletion holds the tenant's rehydration flight for its
// whole duration (no concurrent Get can rehydrate meanwhile), drains the
// build loop — whose final in-flight build may persist one last snapshot —
// and only then erases the disk state, so nothing persisted outlives the
// call. An evicted-but-persisted tenant — addressable through Get — is
// deletable too, even though it is not currently hosted. A store deletion
// failure is returned (and reported through OnPersist with version 0), so
// the caller knows files survived and the name can still rehydrate; the
// in-memory removal stands regardless.
func (m *Manager) Delete(name string) error {
	persisted := false
	var listErr error
	if m.cfg.Store != nil {
		// Hold the rehydration flight for the whole deletion, so no Get can
		// resurrect the tenant from files we are about to erase.
		release := m.lockHydration(name)
		defer release()
		switch vs, err := m.cfg.Store.Versions(name); {
		case err == nil:
			persisted = len(vs) > 0
		case errors.Is(err, store.ErrInvalidName):
			// A name the store rejects can never have been persisted.
		default:
			listErr = err
		}
	}
	m.mu.Lock()
	t, hosted := m.tenants[name]
	if hosted {
		m.removeLocked(t)
		m.deleted++
	}
	m.mu.Unlock()
	if hosted {
		// Drain before erasing: an in-flight build may persist one last
		// snapshot on its way out, and those files must not outlive Delete.
		t.o.Close()
	}
	var delErr error
	if m.cfg.Store != nil && (hosted || persisted || listErr != nil) {
		// Erasing an absent tenant is a no-op, so when the listing failed we
		// erase blindly rather than risk leaving resurrectable files behind.
		switch err := m.cfg.Store.Delete(name); {
		case err == nil, errors.Is(err, store.ErrInvalidName):
			// An unstorable name has nothing on disk to erase.
		default:
			delErr = err
			if m.cfg.OnPersist != nil {
				m.cfg.OnPersist(name, 0, err)
			}
		}
	}
	// The remembered eviction config dies with the tenant — but only once
	// the erase actually went through: a name whose files survived a failed
	// erase can still rehydrate and must keep (or, if hosted, gain) its
	// config.
	m.mu.Lock()
	switch {
	case delErr == nil:
		delete(m.evictedCfg, name)
	case hosted:
		m.evictedCfg[name] = t.cfg
	}
	m.mu.Unlock()
	if !hosted {
		if listErr != nil && delErr == nil {
			// The blind erase went through, but we never learned whether the
			// tenant existed; surface the listing failure rather than claim
			// a deletion we cannot vouch for.
			return listErr
		}
		if listErr == nil && !persisted {
			return fmt.Errorf("%w: %q", ErrTenantNotFound, name)
		}
	}
	// A failed erase is surfaced even for hosted tenants: the caller must
	// know files survived and the name can still rehydrate.
	return delErr
}

// removeLocked detaches t from the table and returns its node budget.
func (m *Manager) removeLocked(t *Tenant) {
	delete(m.tenants, t.name)
	m.totalNodes -= int(t.nodes.Load())
}

// demotion is one planned tier demotion: t stays hosted, keeps serving
// version v, but swaps its resident snapshot for a cold reader; its node
// charge is retagged to cc under the manager lock at plan time.
type demotion struct {
	t  *Tenant
	v  uint64
	cc int
}

// evictLocked reclaims count tenant slots and freeNodes of node budget from
// LRU victims, skipping pinned tenants, tenants with a rebuild in flight
// (not idle), and keep. With tiered serving configured, node pressure
// prefers DEMOTING a hot victim — it stays hosted and keeps answering, now
// from disk at a min(ColdCacheRows, n) charge — over removing it; slot
// pressure always removes (a demotion frees no slot), and if demotions
// alone cannot reach the goal the plan escalates to removals before giving
// up. The plan is computed first: if the goal is unattainable nothing is
// touched (a doomed admission must not destroy tenants on its way to
// ErrOverCapacity). Removed victims are returned for the caller to drain
// and planned demotions for the caller to drainDemotes, both outside the
// lock.
func (m *Manager) evictLocked(count, freeNodes int, keep *Tenant) ([]*Tenant, []demotion) {
	candidates := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		if t == keep || t.cfg.Pinned {
			continue
		}
		if t.o != nil && t.o.Stats().Pending {
			continue // a building tenant is not idle
		}
		candidates = append(candidates, t)
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].lastUsed.Load() < candidates[j].lastUsed.Load()
	})
	removes, demotes, ok := m.planEvictLocked(candidates, count, freeNodes, m.cfg.Cold != nil)
	if !ok && m.cfg.Cold != nil {
		// Demotion gains (n−cc per victim) were not enough; a plan of plain
		// removals frees strictly more per victim.
		removes, demotes, ok = m.planEvictLocked(candidates, count, freeNodes, false)
	}
	if !ok {
		return nil, nil
	}
	for _, t := range removes {
		m.removeLocked(t)
		m.evictions++
		t.evicted.Store(true)
		if m.cfg.Store != nil {
			// Rehydration may bring the name back; it must come back with
			// the exact config it was created with, not just what the
			// snapshot happens to record.
			m.evictedCfg[t.name] = t.cfg
		}
	}
	for _, d := range demotes {
		// Retag the charge now, under the lock, so the admission that
		// triggered this eviction sees the budget freed atomically; the
		// actual cold swap happens in drainDemotes (it does disk I/O). If
		// the swap then fails, drainDemotes falls back to a full eviction so
		// the freed memory materializes either way.
		m.totalNodes -= int(d.t.nodes.Load()) - d.cc
		d.t.nodes.Store(int64(d.cc))
	}
	return removes, demotes
}

// planEvictLocked walks LRU-ordered candidates and plans which to remove
// and (when allowDemote) which to demote, without touching anything.
func (m *Manager) planEvictLocked(candidates []*Tenant, count, freeNodes int, allowDemote bool) (removes []*Tenant, demotes []demotion, ok bool) {
	freed := 0
	for _, t := range candidates {
		if len(removes) >= count && freed >= freeNodes {
			break
		}
		n := int(t.nodes.Load())
		if len(removes) < count {
			// Slot pressure: only a removal frees a slot.
			removes = append(removes, t)
			freed += n
			continue
		}
		if allowDemote {
			if v, cc, can := m.demotableLocked(t); can && n-cc > 0 {
				demotes = append(demotes, demotion{t: t, v: v, cc: cc})
				freed += n - cc
				continue
			}
		}
		removes = append(removes, t)
		freed += n
	}
	return removes, demotes, len(removes) >= count && freed >= freeNodes
}

// demotableLocked reports whether t can be demoted to cold serving: tiered
// serving on, a hot snapshot actually serving (its version is what the
// cold reader must find persisted — verified by drainDemotes when it opens
// the file, since disk cannot be probed under the lock).
func (m *Manager) demotableLocked(t *Tenant) (version uint64, cc int, ok bool) {
	if m.cfg.Cold == nil || m.cfg.Store == nil {
		return 0, 0, false
	}
	if t.o.coldReader() != nil {
		return 0, 0, false // already cold
	}
	version = t.o.Version()
	if version == 0 {
		return 0, 0, false // nothing serving, nothing to keep: removal territory
	}
	return version, m.coldCharge(int(t.nodes.Load())), true
}

// cacheRows resolves the configured per-tenant hot-row cache bound.
func (m *Manager) cacheRows() int {
	if m.cfg.ColdCacheRows > 0 {
		return m.cfg.ColdCacheRows
	}
	return DefaultColdCacheRows
}

// coldCharge is the node budget a cold n-node tenant is charged: one unit
// per potentially resident cache row, capped at the graph size. A hot
// tenant holds n rows of 8·n bytes; a cold one holds at most cacheRows of
// them, so the same per-row unit keeps the budget meaning "resident rows".
func (m *Manager) coldCharge(n int) int {
	if r := m.cacheRows(); r < n {
		return r
	}
	return n
}

// drainDemotes performs planned demotions outside the manager lock: open
// the cold reader (one header pass — never the row block) and swap it into
// the victim's oracle. A victim whose snapshot cannot be opened cold —
// missing, corrupt, or recording another version than the one it served —
// falls back to a full eviction, so the memory the plan already freed from
// the budget genuinely materializes.
func (m *Manager) drainDemotes(demotes []demotion) {
	for _, d := range demotes {
		r, err := m.cfg.Cold.OpenCold(d.t.name, d.v, m.cacheRows())
		if err == nil {
			if derr := d.t.o.swapTier(newColdSnapshot(r, &d.t.o.cnt)); derr != nil {
				r.Close()
				err = derr
			}
		}
		if err == nil {
			m.demotions.Add(1)
			continue
		}
		if errors.Is(err, ErrSuperseded) || errors.Is(err, ErrClosed) {
			// The tenant moved on between plan and swap — a new SetGraph
			// re-admitted it at full charge, a newer build published, or a
			// Delete closed it. Each of those settled the budget through its
			// own path; nothing to undo.
			continue
		}
		m.evictNow(d.t, d.cc)
	}
}

// evictNow fully evicts t after its planned demotion failed, unless the
// tenant moved on meanwhile (re-admitted at a different charge, re-created,
// or deleted) — in that case whoever moved it owns the budget now.
func (m *Manager) evictNow(t *Tenant, cc int) {
	m.mu.Lock()
	if m.tenants[t.name] != t || int(t.nodes.Load()) != cc {
		m.mu.Unlock()
		return
	}
	m.removeLocked(t)
	m.evictions++
	t.evicted.Store(true)
	if m.cfg.Store != nil {
		m.evictedCfg[t.name] = t.cfg
	}
	m.mu.Unlock()
	m.drain([]*Tenant{t})
}

// drain closes evicted tenants' oracles outside the manager lock and fires
// the eviction hook. Closing waits for the victim's build loop, so by the
// time the admission call that triggered the eviction returns, the evicted
// capacity is genuinely released. (Victims are selected idle — no build in
// flight — atomically with their removal, so no late persist can land
// during or after the drain.)
func (m *Manager) drain(victims []*Tenant) {
	for _, t := range victims {
		t.o.Close()
		if m.cfg.Store != nil {
			// A victim with nothing on disk can never rehydrate, so there
			// is no incarnation config worth remembering — without this
			// cleanup, churn through never-published tenants would grow
			// evictedCfg without bound.
			if vs, err := m.cfg.Store.Versions(t.name); err == nil && len(vs) == 0 {
				m.mu.Lock()
				delete(m.evictedCfg, t.name)
				m.mu.Unlock()
			}
		}
		if m.cfg.OnEvict != nil {
			m.cfg.OnEvict(t.name)
		}
	}
}

// setGraph checks g against t's own node cap, admits it against the node
// budget (evicting idle tenants if needed) and registers it with t's oracle.
func (m *Manager) setGraph(t *Tenant, g *cliqueapsp.Graph) (uint64, error) {
	if g == nil {
		return 0, fmt.Errorf("oracle: nil graph")
	}
	if limit := t.cfg.MaxNodes; limit > 0 && g.N() > limit {
		return 0, fmt.Errorf("oracle: graph of %d nodes exceeds tenant %q's limit of %d", g.N(), t.name, limit)
	}
	// Serialize per tenant so concurrent SetGraph calls can't interleave
	// their budget deltas (the oracle itself coalesces rapid updates).
	t.setMu.Lock()
	defer t.setMu.Unlock()
	prev, err := m.admitNodes(t, g.N())
	if err != nil {
		return 0, err
	}
	v, err := t.o.SetGraph(g)
	if err != nil {
		// Roll back the admission: the oracle rejected the graph (closed).
		m.rollbackNodes(t, prev)
		return 0, err
	}
	return v, nil
}

// admitNodes charges t's node budget for an n-node graph, evicting idle
// tenants if the total budget requires it, and returns t's previous budget
// for rollback. The caller must hold t.setMu.
func (m *Manager) admitNodes(t *Tenant, n int) (prev int, err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrClosed
	}
	if m.tenants[t.name] != t {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrTenantNotFound, t.name)
	}
	prev = int(t.nodes.Load())
	delta := n - prev
	var victims []*Tenant
	var demotes []demotion
	if m.cfg.MaxTotalNodes > 0 && m.totalNodes+delta > m.cfg.MaxTotalNodes {
		victims, demotes = m.evictLocked(0, m.totalNodes+delta-m.cfg.MaxTotalNodes, t)
		if m.totalNodes+delta > m.cfg.MaxTotalNodes {
			inUse := m.totalNodes - prev
			m.mu.Unlock()
			m.drain(victims)
			m.drainDemotes(demotes)
			return 0, fmt.Errorf("%w: %d nodes requested over a budget of %d (%d in use)",
				ErrOverCapacity, n, m.cfg.MaxTotalNodes, inUse)
		}
	}
	m.totalNodes += delta
	t.nodes.Store(int64(n))
	m.mu.Unlock()
	m.drain(victims)
	m.drainDemotes(demotes)
	return prev, nil
}

// rollbackNodes restores t's node budget to prev after a failed admission.
func (m *Manager) rollbackNodes(t *Tenant, prev int) {
	m.mu.Lock()
	if m.tenants[t.name] == t {
		m.totalNodes += prev - int(t.nodes.Load())
		t.nodes.Store(int64(prev))
	}
	m.mu.Unlock()
}

// report fans one tenant's completed build attempt out to the hooks. It
// runs on the tenant's build goroutine before Wait can return for the
// version.
func (m *Manager) report(name string, r buildReport) {
	if m.cfg.OnPhase != nil {
		for _, p := range r.phases {
			m.cfg.OnPhase(name, p.Phase, p.Duration)
		}
	}
	if r.repaired {
		if m.cfg.OnRepair != nil {
			m.cfg.OnRepair(name, r.version, r.elapsed)
		}
	} else if m.cfg.OnRebuild != nil {
		m.cfg.OnRebuild(name, r.version, r.elapsed, r.err)
	}
}

// persist saves one published snapshot under the tenant's name. It runs on
// the tenant's build goroutine: blocking the build loop on the write is
// deliberate — a rebuild is orders of magnitude more expensive than
// streaming its output to disk, and it guarantees publish order matches
// persist order per tenant.
func (m *Manager) persist(name string, eps float64, seedPinned bool, p published) {
	err := m.cfg.Store.Save(name, &store.Snapshot{
		Version:     p.version,
		Algorithm:   string(p.res.Algorithm),
		FactorBound: p.res.FactorBound,
		Eps:         eps,
		Seed:        p.res.Seed,
		SeedPinned:  seedPinned,
		Engine:      cliqueapsp.EngineVersion,
		BaseVersion: p.baseVersion,
		DeltaCount:  p.deltaCount,
		Graph:       p.graph,
		Distances:   p.res.Distances,
	})
	if err != nil {
		m.persistErrors.Add(1)
	} else {
		m.persists.Add(1)
	}
	if m.cfg.OnPersist != nil {
		m.cfg.OnPersist(name, p.version, err)
	}
}

// loadSnapshot is the manager's only route to Store.Load, so every complete
// O(n²) snapshot decode is counted — the cost the cold tier exists to avoid.
func (m *Manager) loadSnapshot(name string) (*store.Snapshot, error) {
	s, err := m.cfg.Store.Load(name)
	if err == nil {
		m.fullDecodes.Add(1)
	}
	return s, err
}

// resultFromSnapshot rebuilds the Result a persisted snapshot was published
// from. Communication accounting (rounds/messages/words) is not persisted:
// it describes the simulated run, not the estimate being served.
func resultFromSnapshot(s *store.Snapshot) *cliqueapsp.Result {
	return &cliqueapsp.Result{
		Distances:   s.Distances,
		FactorBound: s.FactorBound,
		Algorithm:   cliqueapsp.Algorithm(s.Algorithm),
		Seed:        s.Seed,
	}
}

// lockHydration claims name's rehydration flight, waiting out any flight
// already in progress, and returns the release function. Rehydrations and
// Delete both take the flight, so a rehydration can never race a deletion
// into resurrecting the tenant, and concurrent cold hits do one disk load.
func (m *Manager) lockHydration(name string) func() {
	for {
		m.hydMu.Lock()
		ch, inflight := m.hydrating[name]
		if !inflight {
			ch := make(chan struct{})
			m.hydrating[name] = ch
			m.hydMu.Unlock()
			return func() {
				m.hydMu.Lock()
				delete(m.hydrating, name)
				m.hydMu.Unlock()
				close(ch)
			}
		}
		m.hydMu.Unlock()
		<-ch
	}
}

// rehydrate brings a tenant that is not hosted — typically evicted — back
// from its newest persisted snapshot, with the config the evicted
// incarnation was created with (it carries RunOptions, BuildTimeout, Pinned
// and MaxNodes, which a snapshot cannot) or, after a process restart, the
// persisted provenance.
func (m *Manager) rehydrate(name string) (*Tenant, error) {
	release := m.lockHydration(name)
	defer release()
	// The flight we may have waited for could have hosted the tenant.
	if t, err := m.Peek(name); err == nil {
		return t, nil
	}
	p, err := m.openPersisted(name)
	if err != nil {
		// A name the store's alphabet rejects can never have been persisted:
		// that is an absent tenant, not a broken rehydration.
		if errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrInvalidName) {
			return nil, fmt.Errorf("%w: %q", ErrTenantNotFound, name)
		}
		m.rehydrateErrors.Add(1)
		return nil, fmt.Errorf("oracle: rehydrating %q: %w", name, err)
	}
	m.mu.Lock()
	tc, remembered := m.evictedCfg[name]
	m.mu.Unlock()
	if !remembered {
		tc = tenantConfigFromIndex(p.ix)
	}
	t, err := m.restoreNew(name, tc, p)
	if err != nil {
		if errors.Is(err, ErrTenantExists) {
			// Raced an explicit Create; serve whatever won — it may still
			// be building, in which case queries see ErrNotReady and retry.
			return m.Peek(name)
		}
		m.rehydrateErrors.Add(1)
		return nil, fmt.Errorf("oracle: rehydrating %q: %w", name, err)
	}
	m.coldHits.Add(1)
	return t, nil
}

// persisted is a tenant's newest persisted snapshot, opened on the tier the
// node budget affords: cold (a tier reader) or hot (the decoded snapshot).
type persisted struct {
	ix   store.RowIndex  // provenance and dimensions
	cold *tier.Reader    // nil when hot
	snap *store.Snapshot // nil when cold
}

// openPersisted opens name's newest persisted snapshot and chooses its
// tier: cold when tiered serving is on and a hot restore has no budget
// headroom, hot otherwise. The choice happens before any decode — the
// reader's index carries the graph size — so a tight-budget boot brings the
// whole fleet up with zero O(n²) decodes. Anything not cold-openable falls
// through to the decode, which produces the canonical error.
func (m *Manager) openPersisted(name string) (*persisted, error) {
	if m.cfg.Cold != nil {
		if vs, err := m.cfg.Store.Versions(name); err == nil && len(vs) > 0 {
			if r, err := m.cfg.Cold.OpenCold(name, vs[len(vs)-1], m.cacheRows()); err == nil {
				if !m.hasHeadroom(r.N()) {
					return &persisted{ix: r.Index(), cold: r}, nil
				}
				r.Close()
			}
		}
	}
	snap, err := m.loadSnapshot(name)
	if err != nil {
		return nil, err
	}
	ix, err := store.IndexOf(snap)
	if err != nil {
		return nil, err
	}
	return &persisted{ix: *ix, snap: snap}, nil
}

// nodes is the node budget p is charged on its tier.
func (p *persisted) nodes(m *Manager) int {
	if p.cold != nil {
		return m.coldCharge(p.ix.N)
	}
	return p.ix.N
}

// publish restores p into o, which takes ownership of it on success.
func (p *persisted) publish(o *Oracle) error {
	if p.cold != nil {
		return o.restoreCold(p.cold)
	}
	return o.RestoreSnapshot(p.ix.Version, p.snap.Graph, resultFromSnapshot(p.snap))
}

// discard releases p's file when no oracle serves it.
func (p *persisted) discard() {
	if p.cold != nil {
		p.cold.Close()
	}
}

// restoreNew creates name's tenant, publishes p on it, and only then hosts
// it — admitted at p's node charge in the same eviction plan as its slot —
// so no Get can reach the tenant before it serves.
func (m *Manager) restoreNew(name string, tc TenantConfig, p *persisted) (*Tenant, error) {
	t := m.newTenant(name, tc)
	err := p.publish(t.o)
	if err == nil {
		err = m.host(t, p.nodes(m))
	}
	if err != nil {
		// Never visible, so no query holds the snapshot's source.
		t.o.Close()
		p.discard()
		return nil, err
	}
	return t, nil
}

// hasHeadroom reports whether an n-node hot restore fits the node budget
// without evicting or demoting anyone — the tier choice at restore time:
// decode hot while memory is free, serve cold once it is not.
func (m *Manager) hasHeadroom(n int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg.MaxTotalNodes == 0 || m.totalNodes+n <= m.cfg.MaxTotalNodes
}

// tenantConfigFromIndex turns persisted provenance back into the tenant
// config future rebuilds of the restored tenant should run with.
func tenantConfigFromIndex(ix store.RowIndex) TenantConfig {
	tc := TenantConfig{
		Algorithm: cliqueapsp.Algorithm(ix.Algorithm),
		Eps:       ix.Eps,
	}
	// Seed is always the concrete seed of the persisted run; re-pin it only
	// if the tenant's own config had pinned it, or a tenant that wanted
	// fresh randomness per rebuild would silently freeze.
	if ix.SeedPinned {
		tc.Seed = ix.Seed
	}
	return tc
}

// dropTenant backs out a tenant whose create failed after it was hosted:
// removed from the table and drained, without touching the store.
func (m *Manager) dropTenant(t *Tenant) {
	m.mu.Lock()
	if m.tenants[t.name] == t {
		m.removeLocked(t)
	}
	m.mu.Unlock()
	t.o.Close()
}

// RestoreAll restores every tenant persisted in the store, bringing the
// whole fleet up to serving before any rebuild runs: tenants that are not
// hosted are created from their persisted provenance, and hosted tenants,
// serving or not, are left alone. A tenant whose snapshot fails to load or
// restore — corrupt file, unknown format, over-budget graph — is skipped and
// reported; the rest of the fleet still restores. report (optional)
// observes every attempted tenant with nil or its error; the returned
// counts summarize the sweep, and err is non-nil only when the store
// listing itself failed.
func (m *Manager) RestoreAll(report func(tenant string, err error)) (restored, failed int, err error) {
	if m.cfg.Store == nil {
		return 0, 0, fmt.Errorf("oracle: RestoreAll without a configured Store")
	}
	if report == nil {
		report = func(string, error) {}
	}
	names, err := m.cfg.Store.Tenants()
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		// Checked before the O(n²) decode: a hosted tenant's own state wins
		// over its files, so they need not be read at all.
		if _, terr := m.Peek(name); terr == nil {
			continue
		}
		switch outcome, rerr := m.restoreOne(name); outcome {
		case restoreOK:
			m.restored.Add(1)
			restored++
			report(name, nil)
		case restoreSkip:
			// Nothing persisted, or a live Create beat the restore.
		case restoreFail:
			m.restoreErrors.Add(1)
			failed++
			report(name, rerr)
		}
	}
	return restored, failed, nil
}

// Outcomes of one RestoreAll tenant attempt.
const (
	restoreOK = iota
	restoreSkip
	restoreFail
)

// restoreOne restores one persisted tenant that is not hosted.
func (m *Manager) restoreOne(name string) (int, error) {
	p, err := m.openPersisted(name)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return restoreSkip, nil // an empty tenant directory is not a failure
		}
		return restoreFail, err
	}
	_, err = m.restoreNew(name, tenantConfigFromIndex(p.ix), p)
	switch {
	case err == nil:
		return restoreOK, nil
	case errors.Is(err, ErrTenantExists):
		return restoreSkip, nil // hosted since the check: its own state wins
	default:
		return restoreFail, err
	}
}

// Promote decodes the newest persisted snapshot of a cold-serving tenant
// and swaps it in hot, admitting the full n-node charge (which may demote
// or evict idler tenants). A tenant already hot is a no-op; ErrSuperseded
// means the serving snapshot moved while the decode ran — the mover's state
// wins. Promotion is explicit policy, not automatic: sustained traffic is
// visible in TenantStats (ColdServes, RowCache misses) and the operator —
// or a layer above — decides who earns the memory back.
func (m *Manager) Promote(name string) error {
	t, err := m.Peek(name)
	if err != nil {
		return err
	}
	r := t.o.coldReader()
	if r == nil {
		return nil
	}
	snap, err := m.loadSnapshot(name)
	if err != nil {
		return fmt.Errorf("oracle: promoting %q: %w", name, err)
	}
	if snap.Version != r.Version() {
		return fmt.Errorf("%w: newest persisted snapshot of %q is v%d, serving v%d",
			ErrSuperseded, name, snap.Version, r.Version())
	}
	t.setMu.Lock()
	defer t.setMu.Unlock()
	prev, err := m.admitNodes(t, snap.Graph.N())
	if err != nil {
		return err
	}
	if err := t.o.swapTier(newSnapshot(snap.Version, snap.Graph, resultFromSnapshot(snap), &t.o.cnt)); err != nil {
		m.rollbackNodes(t, prev)
		return err
	}
	m.promotions.Add(1)
	return nil
}

// SetQuota ensures q is the quota enforced for name, whether the tenant is
// currently hosted or evicted-awaiting-rehydration (the remembered config a
// rehydration restores is updated too, so a quota change cannot be lost to
// an eviction window). Unlike Tenant.SetQuota it is idempotent: a hosted
// tenant already enforcing q keeps its bucket state, so periodic
// reconciliation (e.g. a daemon's config reload) does not hand every
// tenant a fresh burst. An unknown name is a no-op — the quota simply has
// nothing to attach to.
func (m *Manager) SetQuota(name string, q Quota) error {
	if err := q.Validate(); err != nil {
		return err
	}
	// Update the remembered eviction config first: if a rehydration is
	// racing this call, it re-creates the tenant from this entry under the
	// hydration flight and picks the new quota up.
	m.mu.Lock()
	if tc, ok := m.evictedCfg[name]; ok {
		tc.Quota = q
		m.evictedCfg[name] = tc
	}
	m.mu.Unlock()
	if t, err := m.Peek(name); err == nil && t.Quota() != q {
		return t.SetQuota(q)
	}
	return nil
}

// ManagerStats aggregates the manager's admission counters with every
// tenant's own Stats.
type ManagerStats struct {
	// Graphs and TotalNodes describe current occupancy; MaxGraphs and
	// MaxTotalNodes echo the configured budgets (0 = unlimited).
	Graphs        int `json:"graphs"`
	MaxGraphs     int `json:"max_graphs"`
	TotalNodes    int `json:"total_nodes"`
	MaxTotalNodes int `json:"max_total_nodes"`
	// Created, Deleted and Evictions count tenant lifecycle events since
	// the manager was built.
	Created   uint64 `json:"created"`
	Deleted   uint64 `json:"deleted"`
	Evictions uint64 `json:"evictions"`
	// Persists and PersistErrors count snapshot saves through the configured
	// Store (all zero without one).
	Persists      uint64 `json:"persists"`
	PersistErrors uint64 `json:"persist_errors"`
	// Restored and RestoreErrors count RestoreAll outcomes: tenants brought
	// up from disk at boot, and tenants skipped because their snapshot would
	// not load or restore.
	Restored      uint64 `json:"restored"`
	RestoreErrors uint64 `json:"restore_errors"`
	// ColdHits counts evicted (or otherwise unhosted) tenants rehydrated
	// from disk on access — each one is an eviction that cost a disk read
	// instead of the tenant; RehydrateErrors counts rehydrations that failed
	// on a loadable-but-unrestorable or corrupt snapshot.
	ColdHits        uint64 `json:"cold_hits"`
	RehydrateErrors uint64 `json:"rehydrate_errors"`
	// Throttled counts queries rejected by per-tenant quotas, summed over
	// every tenant that ever lived in this manager (per-tenant counters die
	// with their tenant; this one does not).
	Throttled uint64 `json:"throttled"`
	// Demotions counts hot tenants swapped to cold (disk-tier) serving under
	// memory pressure — evictions that kept their tenant; Promotions counts
	// cold tenants decoded back to hot serving.
	Demotions  uint64 `json:"demotions"`
	Promotions uint64 `json:"promotions"`
	// FullDecodes counts complete O(n²) snapshot decodes (restores,
	// rehydrations, promotions) — the cost cold serving exists to avoid. A
	// tight-budget boot that comes up entirely cold reports zero.
	FullDecodes uint64 `json:"full_decodes"`
	// ColdTenants counts hosted tenants currently serving from the disk
	// tier; ColdServes and the RowCache counters sum those tenants' query
	// and hot-row cache activity. Summed over hosted tenants only: a
	// demoted-then-deleted tenant takes its counts with it.
	ColdTenants       int    `json:"cold_tenants"`
	ColdServes        uint64 `json:"cold_serves"`
	RowCacheHits      uint64 `json:"row_cache_hits"`
	RowCacheMisses    uint64 `json:"row_cache_misses"`
	RowCacheEvictions uint64 `json:"row_cache_evictions"`
	// BuildConcurrency echoes the configured build admission cap (absent =
	// unlimited); BuildsRunning and BuildsQueued sample the gate right now;
	// BuildsAdmitted counts builds ever admitted through the gate, and
	// BuildWaitNS is the cumulative time builds spent queued behind it.
	BuildConcurrency int    `json:"build_concurrency,omitempty"`
	BuildsRunning    int    `json:"builds_running"`
	BuildsQueued     int    `json:"builds_queued"`
	BuildsAdmitted   uint64 `json:"builds_admitted"`
	BuildWaitNS      int64  `json:"build_wait_ns"`
	// Tenants holds one entry per hosted tenant, sorted by name.
	Tenants []TenantStats `json:"tenants"`
}

// TenantStats is one tenant's Stats tagged with its identity.
type TenantStats struct {
	Name   string        `json:"name"`
	Pinned bool          `json:"pinned"`
	Nodes  int           `json:"nodes"`
	Age    time.Duration `json:"age_ns"`
	// Tier mirrors the oracle's serving tier ("hot", "cold", or "" before
	// the first snapshot). A cold tenant's Nodes is its cache charge
	// (min(ColdCacheRows, n)), not its graph size.
	Tier string `json:"tier,omitempty"`
	// Quota echoes the enforced quota (absent = unlimited); Throttled
	// counts this tenant's queries it rejected.
	Quota     *Quota `json:"quota,omitempty"`
	Throttled uint64 `json:"throttled"`
	Oracle    Stats  `json:"oracle"`
}

// Stats returns a point-in-time view of the manager and all tenants.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	st := ManagerStats{
		Graphs:        len(m.tenants),
		MaxGraphs:     m.cfg.MaxGraphs,
		TotalNodes:    m.totalNodes,
		MaxTotalNodes: m.cfg.MaxTotalNodes,
		Created:       m.created,
		Deleted:       m.deleted,
		Evictions:     m.evictions,

		Persists:        m.persists.Load(),
		PersistErrors:   m.persistErrors.Load(),
		Restored:        m.restored.Load(),
		RestoreErrors:   m.restoreErrors.Load(),
		ColdHits:        m.coldHits.Load(),
		RehydrateErrors: m.rehydrateErrors.Load(),
		Throttled:       m.throttled.Load(),
		Demotions:       m.demotions.Load(),
		Promotions:      m.promotions.Load(),
		FullDecodes:     m.fullDecodes.Load(),
	}
	gs := m.gate.Stats()
	st.BuildConcurrency = gs.Slots
	st.BuildsRunning = gs.InUse
	st.BuildsQueued = gs.Queued
	st.BuildsAdmitted = gs.Acquired
	st.BuildWaitNS = gs.WaitNS
	tenants := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		tenants = append(tenants, t)
	}
	m.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	st.Tenants = make([]TenantStats, len(tenants))
	for i, t := range tenants {
		ts := t.Stats()
		st.Tenants[i] = ts
		st.ColdServes += ts.Oracle.ColdServes
		if ts.Tier == "cold" {
			st.ColdTenants++
			if rc := ts.Oracle.RowCache; rc != nil {
				st.RowCacheHits += rc.Hits
				st.RowCacheMisses += rc.Misses
				st.RowCacheEvictions += rc.Evictions
			}
		}
	}
	return st
}

// Close drains every tenant's build loop and rejects further Create,
// Get-by-new-name admission and SetGraph calls. Idempotent. Like
// Oracle.Close, existing snapshots keep answering queries on outstanding
// handles.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	tenants := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		tenants = append(tenants, t)
	}
	m.tenants = make(map[string]*Tenant)
	m.totalNodes = 0
	m.mu.Unlock()
	for _, t := range tenants {
		t.o.Close()
	}
}

func (t *Tenant) touch() { t.lastUsed.Store(t.m.tick.Add(1)) }

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Pinned reports whether the tenant is exempt from eviction.
func (t *Tenant) Pinned() bool { return t.cfg.Pinned }

// MaxNodes reports the tenant's own node cap (0 = none; see
// TenantConfig.MaxNodes).
func (t *Tenant) MaxNodes() int { return t.cfg.MaxNodes }

// Evicted reports whether the tenant was removed by LRU eviction (its
// last snapshot still answers queries on this handle).
func (t *Tenant) Evicted() bool { return t.evicted.Load() }

// SetGraph registers g for this tenant through the manager's admission
// policy (see Oracle.SetGraph for build semantics).
func (t *Tenant) SetGraph(g *cliqueapsp.Graph) (uint64, error) {
	t.touch()
	return t.m.setGraph(t, g)
}

// ApplyDelta validates and applies a batch of edge deltas to this tenant's
// newest graph and schedules the successor snapshot (see Oracle.ApplyDelta
// for repair-vs-rebuild semantics). The delta is charged one call against
// the tenant's quota — refunded if it is rejected — and refreshes LRU
// recency like any other accepted traffic. No node re-admission is needed:
// deltas change edges, never the node count the budget charges for.
func (t *Tenant) ApplyDelta(d cliqueapsp.GraphDelta) (uint64, error) {
	return t.ApplyDeltaCtx(context.Background(), d)
}

// ApplyDeltaCtx is ApplyDelta with a caller context; a sampled request's
// trace gains a quota-throttle event on rejection.
func (t *Tenant) ApplyDeltaCtx(ctx context.Context, d cliqueapsp.GraphDelta) (uint64, error) {
	if err := t.allow(1); err != nil {
		quotaThrottled(ctx, err)
		return 0, err
	}
	t.touch()
	v, err := t.o.ApplyDelta(d)
	if err != nil {
		// The quota meters accepted work; a rejected delta scheduled nothing
		// and gets its token back.
		t.lim.Load().refundCall(1)
	}
	return v, err
}

// Wait blocks until the tenant serves version ≥ version (see Oracle.Wait).
func (t *Tenant) Wait(ctx context.Context, version uint64) error { return t.o.Wait(ctx, version) }

// Ready reports whether the tenant has a serving snapshot.
func (t *Tenant) Ready() bool { return t.o.Ready() }

// Version returns the tenant's serving snapshot version.
func (t *Tenant) Version() uint64 { return t.o.Version() }

// allow charges one query producing answers pairs against the tenant's
// quota. Throttled calls do not refresh LRU recency: recency tracks served
// traffic, so a tenant hammering past its quota gains no eviction
// protection over well-behaved ones.
func (t *Tenant) allow(answers int) error {
	wait, resource, ok := t.lim.Load().allow(answers)
	if ok {
		return nil
	}
	t.throttled.Add(1)
	t.m.throttled.Add(1)
	return &QuotaError{Tenant: t.name, Resource: resource, RetryAfter: wait}
}

// SetQuota replaces the tenant's quota at runtime (a zero q removes it).
// The new buckets start full, and the change is remembered across eviction
// like a creation-time Quota.
func (t *Tenant) SetQuota(q Quota) error {
	if err := q.Validate(); err != nil {
		return err
	}
	// cfg.Quota is copied under m.mu when the tenant is evicted, so the
	// remembered config always reflects the latest SetQuota.
	t.m.mu.Lock()
	t.cfg.Quota = q
	t.m.mu.Unlock()
	t.lim.Store(newLimiter(q, nil))
	return nil
}

// Quota returns the quota currently enforced (zero = unlimited).
func (t *Tenant) Quota() Quota {
	if l := t.lim.Load(); l != nil {
		return l.q
	}
	return Quota{}
}

// quotaThrottled annotates ctx's active trace span (if any) with a
// quota rejection: a 429 inside a sampled trace must say which bucket
// ran dry, or the trace answers "slow" but not "throttled why".
func quotaThrottled(ctx context.Context, err error) {
	sp := trace.FromContext(ctx)
	if sp == nil {
		return
	}
	sp.Event("quota.throttled")
	var qe *QuotaError
	if errors.As(err, &qe) {
		sp.SetAttr("quota.resource", qe.Resource)
		sp.SetAttr("quota.retry_after", qe.RetryAfter.String())
	}
}

// Dist answers one distance query (see Oracle.Dist).
func (t *Tenant) Dist(u, v int) (DistResult, error) {
	return t.DistCtx(context.Background(), u, v)
}

// DistCtx is Dist with a caller context; a sampled request's trace gains
// the oracle/tier child spans and a quota-throttle event on rejection.
func (t *Tenant) DistCtx(ctx context.Context, u, v int) (DistResult, error) {
	if err := t.allow(1); err != nil {
		quotaThrottled(ctx, err)
		return DistResult{}, err
	}
	t.touch()
	res, err := t.o.DistCtx(ctx, u, v)
	if err != nil {
		// The quota meters answered traffic; a failed query (not ready,
		// out-of-range pair) produced nothing and gets its tokens back.
		t.lim.Load().refundCall(1)
	}
	return res, err
}

// Batch answers many pairs from one snapshot (see Oracle.Batch). The whole
// batch is charged against the answer quota up front — len(pairs) answer
// tokens — so batching cannot launder load past a per-answer budget.
func (t *Tenant) Batch(pairs []Pair) (BatchResult, error) {
	return t.BatchCtx(context.Background(), pairs)
}

// BatchCtx is Batch with a caller context; see DistCtx.
func (t *Tenant) BatchCtx(ctx context.Context, pairs []Pair) (BatchResult, error) {
	if err := t.allow(len(pairs)); err != nil {
		quotaThrottled(ctx, err)
		return BatchResult{}, err
	}
	t.touch()
	res, err := t.o.BatchCtx(ctx, pairs)
	if err != nil {
		t.lim.Load().refundCall(len(pairs))
	}
	return res, err
}

// Path answers one greedy-routing query (see Oracle.Path).
func (t *Tenant) Path(u, v int) (PathResult, error) {
	return t.PathCtx(context.Background(), u, v)
}

// PathCtx is Path with a caller context; see DistCtx.
func (t *Tenant) PathCtx(ctx context.Context, u, v int) (PathResult, error) {
	if err := t.allow(1); err != nil {
		quotaThrottled(ctx, err)
		return PathResult{}, err
	}
	t.touch()
	res, err := t.o.PathCtx(ctx, u, v)
	if err != nil {
		t.lim.Load().refundCall(1)
	}
	return res, err
}

// Stats returns the tenant's oracle counters tagged with its identity.
func (t *Tenant) Stats() TenantStats {
	ts := TenantStats{
		Name:      t.name,
		Pinned:    t.cfg.Pinned,
		Nodes:     int(t.nodes.Load()),
		Age:       time.Since(t.created),
		Throttled: t.throttled.Load(),
		Oracle:    t.o.Stats(),
	}
	ts.Tier = ts.Oracle.Tier
	// Read through the limiter, not t.cfg: the limiter pointer is atomic
	// while cfg.Quota is only synchronized with eviction's copy.
	if l := t.lim.Load(); l != nil {
		q := l.q
		ts.Quota = &q
	}
	return ts
}
