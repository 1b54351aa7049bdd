// Package oracle turns the cliqueapsp Engine into a long-running distance
// oracle: precompute once, query forever. The paper's O(1)-approximate APSP
// leaves every node with approximate distances to all others after
// poly(log log n) rounds — exactly the state a serving layer wants to hold.
//
// An Oracle owns a background build loop. Callers register a graph with
// SetGraph; the oracle runs the configured algorithm through its Engine and
// publishes the result as a versioned immutable snapshot behind an atomic
// pointer. Queries (Dist, Batch, Path) resolve the current snapshot once and
// answer entirely from it, so a query never observes a half-built estimate
// and a batch is always internally consistent — every response reports the
// snapshot version that answered it. While a rebuild is in flight the
// previous snapshot keeps serving, and rapid SetGraph calls coalesce: only
// the latest pending graph is built.
//
// Path queries route greedily from the destination's distance row alone
// (cliqueapsp.RouteToward): on a symmetric estimate the next hop from x
// toward v minimizes w(x,w) + D(v,w), so one row read answers the whole
// route, and a snapshot keeps no per-source routing state. Symmetry is a
// checked precondition: a build or hot restore whose estimate is asymmetric
// is refused.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/internal/sched"
	"github.com/congestedclique/cliqueapsp/obs/trace"
	"github.com/congestedclique/cliqueapsp/tier"
)

// Unreachable is the Distance value reported for pairs with no path in the
// current snapshot (real distances are nonnegative, so -1 is unambiguous).
const Unreachable = int64(-1)

var (
	// ErrNotReady is returned by queries before the first snapshot is built.
	ErrNotReady = errors.New("oracle: no snapshot yet (SetGraph and Wait first)")
	// ErrClosed is returned once Close has been called.
	ErrClosed = errors.New("oracle: closed")
	// ErrSuperseded is returned by RestoreSnapshot when the oracle already
	// has newer state — a serving snapshot, or a SetGraph accepted before
	// the restore. Persisted versions are not comparable with a fresh
	// process's SetGraph counter, so live intent always wins over a restore.
	// Tier swaps (demote/promote) return it when the serving snapshot moved
	// on while the swap was being prepared.
	ErrSuperseded = errors.New("oracle: restore superseded by newer state")
	// ErrColdRead wraps I/O and corruption failures hit while answering a
	// query from a cold (disk-tier) snapshot. The query failed, the tenant
	// did not: the snapshot keeps serving and the read is retried on the
	// next query.
	ErrColdRead = errors.New("oracle: cold snapshot read failed")
	// ErrNoGraph is returned by ApplyDelta when the oracle has neither a
	// serving snapshot nor a queued graph to patch: a delta describes a
	// change to something, so there must be a base graph first.
	ErrNoGraph = errors.New("oracle: no base graph to patch (upload a graph first)")
)

// defaultRepairMaxDirtyFrac is the repair/rebuild tipping point when
// Config.RepairMaxDirtyFrac is zero: repairs whose dirty set exceeds a
// quarter of the nodes run the full pipeline instead — beyond that the
// per-source Dijkstras approach the cost of a fresh exact build anyway.
const defaultRepairMaxDirtyFrac = 0.25

// Config configures an Oracle. The zero value is usable: a private Engine
// with package defaults and the default algorithm.
type Config struct {
	// Engine runs the rebuilds. Nil constructs a private cliqueapsp.New().
	Engine *cliqueapsp.Engine
	// Algorithm selects the estimate every rebuild computes ("" keeps the
	// engine's default). Any registered algorithm works, including custom
	// ones added with cliqueapsp.Register, as long as its estimate is
	// symmetric: a build of an asymmetric one fails.
	Algorithm cliqueapsp.Algorithm
	// Eps sets the accuracy slack of the scaling stages for every rebuild
	// (0 = engine default). Prefer this over putting cliqueapsp.WithEps in
	// RunOptions: the value here is also recorded as provenance in
	// persisted snapshots, so the two cannot drift.
	Eps float64
	// RunOptions are appended to every rebuild's Engine.Run call after the
	// Algorithm and Eps fields (so an explicit option here wins ties) —
	// e.g. cliqueapsp.WithSeed for reproducible serving. The oracle installs
	// its own progress recorder last on every run, so a
	// cliqueapsp.WithProgress here never fires: phase boundaries reach
	// Stats().LastBuildPhases and ManagerConfig.OnPhase instead.
	RunOptions []cliqueapsp.RunOption
	// BuildTimeout bounds each rebuild (0 = no limit). A timed-out rebuild
	// keeps the previous snapshot serving and records the error.
	BuildTimeout time.Duration
	// RepairMaxDirtyFrac bounds the incremental repair path: a delta whose
	// dirty node set exceeds this fraction of n falls back to a full engine
	// rebuild. 0 selects the default (0.25); a negative value disables
	// repair entirely, turning every delta into a coalesced rebuild.
	RepairMaxDirtyFrac float64
	// Tracer, when non-nil, records a trace per build attempt (gate wait,
	// one span per engine phase, the persist call) and lets the context-
	// carried request spans opened by DistCtx/BatchCtx/PathCtx land
	// somewhere. Builds are always captured — they are rare and each one is
	// a per-phase flame view of the pipeline; request sampling is the
	// caller's (ccserve middleware's) decision, made before the context
	// reaches the oracle.
	Tracer *trace.Tracer

	// gate, when non-nil, is the fleet-wide build admission control: the
	// build loop acquires a slot before running the engine and releases it
	// after, so at most gate.Slots tenant builds run concurrently no matter
	// how many oracles a Manager hosts. Queue wait is charged to the gate's
	// accounting, not to BuildTimeout. Set by Manager; unexported because a
	// standalone Oracle has nothing to share a budget with.
	gate *sched.Gate
	// name is the tenant name builds are traced under. Set by Manager for
	// the same reason gate is unexported: a standalone Oracle has no fleet
	// identity to report.
	name string
	// persist, when non-nil, saves every snapshot a build or repair is about
	// to publish. It runs on the build goroutine BEFORE the snapshot becomes
	// visible to queries and waiters, so once Dist or Wait observes the
	// version a successful save is durable (a failed one is the Manager's to
	// report; the snapshot serves regardless). Restored snapshots are never
	// persisted again. Set by Manager when it has a store.
	persist func(published)
	// report, when non-nil, receives one report per completed build attempt,
	// tagged with name, before the attempt is recorded for Wait: a caller
	// whose Wait returned has observed everything report did. Set by
	// Manager, which fans the report out to its hooks.
	report func(name string, r buildReport)
}

// published is one snapshot about to be published, handed to
// Config.persist. All fields are read-only. res is the provenance (its
// Distances nil); dist is the full estimate the snapshot packed, which lives
// only until persist returns. baseVersion and deltaCount are the
// incremental-repair provenance: a repaired snapshot names the snapshot its
// distances were patched from and how many edge deltas were folded in,
// while a from-scratch engine build carries (0, 0).
type published struct {
	version     uint64
	graph       *cliqueapsp.Graph
	res         *cliqueapsp.Result
	dist        *cliqueapsp.DistanceMatrix
	baseVersion uint64
	deltaCount  int
}

// buildReport describes one completed build attempt to Config.report: the
// version it was for, whether it ran the repair path or the engine, its wall
// time, the phases it finished in execution order (for a failed build too),
// and nil or the build error. A repair cannot fail, so err is nil whenever
// repaired is set.
type buildReport struct {
	version  uint64
	repaired bool
	elapsed  time.Duration
	phases   []PhaseTiming
	err      error
}

// PhaseTiming is the wall time of one pipeline phase of a build, in
// execution order. Phase names come from the engine's progress checkpoints
// (e.g. "theorem11/knearest"), the names Result.Phases breaks the build's
// model cost down by, with nested pipelines' phases lifted by name.
type PhaseTiming struct {
	Phase    string        `json:"phase"`
	Duration time.Duration `json:"duration_ns"`
}

// phaseRecorder turns the engine's progress checkpoints into PhaseTimings.
// Checkpoints fire at phase starts, so mark closes the previously open
// phase; finish closes the last one when the run returns. The mutex makes
// it safe regardless of which goroutine the engine fires callbacks from.
type phaseRecorder struct {
	mu     sync.Mutex
	phases []PhaseTiming
	name   string
	start  time.Time
}

func (p *phaseRecorder) mark(phase string) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.name != "" {
		p.phases = append(p.phases, PhaseTiming{Phase: p.name, Duration: now.Sub(p.start)})
	}
	p.name, p.start = phase, now
}

func (p *phaseRecorder) finish() []PhaseTiming {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.name != "" {
		p.phases = append(p.phases, PhaseTiming{Phase: p.name, Duration: time.Since(p.start)})
		p.name = ""
	}
	return p.phases
}

// Pair is one (source, destination) query of a Batch.
type Pair struct {
	U int `json:"u"`
	V int `json:"v"`
}

// Answer is one answered pair. Distance is the snapshot's estimate (an
// upper bound within the run's proven factor), or Unreachable when the
// snapshot has no path.
type Answer struct {
	U         int   `json:"u"`
	V         int   `json:"v"`
	Distance  int64 `json:"distance"`
	Reachable bool  `json:"reachable"`
}

// DistResult is a single Dist answer plus the snapshot version that
// answered it.
type DistResult struct {
	Answer
	Version uint64 `json:"version"`
}

// BatchResult is a Batch answer: every entry comes from the one snapshot
// identified by Version.
type BatchResult struct {
	Version uint64   `json:"version"`
	Answers []Answer `json:"answers"`
}

// PathResult is a Path answer: the hop sequence from U to V (inclusive)
// under greedy next-hop routing on the snapshot's estimate, and its realized
// cost in edge weights. Unreachable pairs report Reachable false, a nil
// Path, and Cost Unreachable.
type PathResult struct {
	U         int    `json:"u"`
	V         int    `json:"v"`
	Reachable bool   `json:"reachable"`
	Path      []int  `json:"path,omitempty"`
	Cost      int64  `json:"cost"`
	Version   uint64 `json:"version"`
}

// Stats is a point-in-time snapshot of the oracle's counters.
type Stats struct {
	// Version and SnapshotAge describe the serving snapshot (Version 0 =
	// none yet).
	Version     uint64        `json:"version"`
	SnapshotAge time.Duration `json:"snapshot_age_ns"`
	// GraphN and GraphM are the serving snapshot's graph dimensions.
	GraphN int `json:"graph_n"`
	GraphM int `json:"graph_m"`
	// Algorithm and FactorBound are the serving snapshot's provenance.
	Algorithm   string  `json:"algorithm"`
	FactorBound float64 `json:"factor_bound"`
	// DistQueries, BatchQueries and PathQueries count API calls; Answers
	// counts individual pairs answered across all of them.
	DistQueries  uint64 `json:"dist_queries"`
	BatchQueries uint64 `json:"batch_queries"`
	PathQueries  uint64 `json:"path_queries"`
	Answers      uint64 `json:"answers"`
	// RowsBuilt and RowHits always read 0: Path reads the destination's
	// distance row and memoizes no next-hop rows. They stay for API
	// compatibility until the API collapse on the ROADMAP retires them.
	RowsBuilt uint64 `json:"rows_built"`
	RowHits   uint64 `json:"row_hits"`
	// Rebuilds and RebuildErrors count completed build attempts;
	// LastRebuild is the wall time of the most recent successful one.
	Rebuilds      uint64        `json:"rebuilds"`
	RebuildErrors uint64        `json:"rebuild_errors"`
	LastRebuild   time.Duration `json:"last_rebuild_ns"`
	// Repairs counts snapshots published by the incremental repair path —
	// edge deltas folded into the previous distances without an engine run.
	// RepairFallbacks counts deltas that wanted a repair but ran the full
	// pipeline instead (dirty set too large, cold base, approximate matrix
	// with an increase, or repair disabled); those publishes count under
	// Rebuilds. CoalescedDeltas counts delta edges that merged into work
	// already queued instead of triggering their own publish.
	Repairs         uint64 `json:"repairs"`
	RepairFallbacks uint64 `json:"repair_fallbacks"`
	CoalescedDeltas uint64 `json:"coalesced_deltas"`
	// LastBuildPhases is the per-phase wall-time breakdown of the serving
	// snapshot's build (nil for restored or cold snapshots, which skipped
	// the engine entirely).
	LastBuildPhases []PhaseTiming `json:"last_build_phases,omitempty"`
	// Restores counts snapshots published by RestoreSnapshot — estimates
	// served without paying for an engine run. Cold restores (restoreCold)
	// count here too: either way the estimate came from disk, not the engine.
	Restores uint64 `json:"restores"`
	// Pending reports whether a rebuild is queued or running.
	Pending bool `json:"pending"`
	// Tier reports where the serving snapshot's rows live: "hot" (resident
	// n×n matrix), "cold" (disk behind the hot-row cache), or "" before the
	// first snapshot.
	Tier string `json:"tier,omitempty"`
	// ColdServes counts queries answered from a cold snapshot — calls that
	// cost at most a few preads instead of touching a resident matrix.
	ColdServes uint64 `json:"cold_serves"`
	// RowCache is the cold snapshot's hot-row cache counters (nil when hot).
	RowCache *tier.CacheStats `json:"row_cache,omitempty"`
}

// counters are the oracle's monotonically increasing totals.
type counters struct {
	distQueries, batchQueries, pathQueries atomic.Uint64
	answers                                atomic.Uint64
	rebuilds, rebuildErrors                atomic.Uint64
	repairs, repairFallbacks               atomic.Uint64
	coalescedDeltas                        atomic.Uint64
	restores                               atomic.Uint64
	coldServes                             atomic.Uint64
}

// Oracle serves distance and path queries from versioned snapshots rebuilt
// in the background. Construct with New; an Oracle is safe for concurrent
// use by any number of goroutines.
type Oracle struct {
	cfg  Config
	eng  *cliqueapsp.Engine
	ctx  context.Context
	stop context.CancelFunc

	cur atomic.Pointer[snapshot]
	cnt counters

	mu       sync.Mutex
	version  uint64       // last version assigned (SetGraph, restore, or reservation)
	graphSet bool         // a SetGraph or ApplyDelta has been accepted (blocks restores)
	pending  *pendingWork // coalesced work awaiting the build loop (nil = none)
	// latestG/latestV are the newest accepted graph and the version it will
	// (or did) publish under — they cover the window where the build loop has
	// popped the pending unit but not yet published it, when neither o.pending
	// nor o.cur reflects the newest registered state. ApplyDelta must extend
	// THIS graph: validating against the still-serving snapshot there would
	// silently drop the in-flight changes from the successor.
	latestG  *cliqueapsp.Graph
	latestV  uint64
	building bool          // build goroutine live
	lastDone uint64        // version of the last completed build attempt
	lastErr  error         // error of that attempt (nil on success)
	notify   chan struct{} // closed and replaced on every completion
	closed   bool
	wg       sync.WaitGroup
}

// pendingWork is the coalesced unit the build loop pops: the newest graph
// to serve and — when everything since the serving snapshot arrived as edge
// deltas — the delta trail that produced it, so the loop can repair the
// published distances instead of rebuilding them. deltas nil means a full
// rebuild is required: a fresh SetGraph upload, or a stream that coalesced
// onto one (an upload invalidates any delta bookkeeping before it).
type pendingWork struct {
	g      *cliqueapsp.Graph
	v      uint64                 // version the publish will carry
	deltas []cliqueapsp.EdgeDelta // nil = full rebuild
	baseV  uint64                 // serving version the deltas extend
}

// New returns an Oracle ready to accept SetGraph.
func New(cfg Config) *Oracle {
	eng := cfg.Engine
	if eng == nil {
		eng = cliqueapsp.New()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Oracle{
		cfg:    cfg,
		eng:    eng,
		ctx:    ctx,
		stop:   cancel,
		notify: make(chan struct{}),
	}
}

// SetGraph registers g as the graph to serve and schedules a background
// rebuild, returning the version the resulting snapshot will carry. The
// previous snapshot (if any) keeps serving until the new one is published.
// Calls made while a rebuild is in flight coalesce: intermediate graphs are
// skipped and only the latest is built (its version still supersedes the
// skipped ones, so Wait on a skipped version succeeds once a newer snapshot
// lands).
//
// The graph is copied, so the caller may keep mutating g (e.g. AddEdge) and
// re-register it later without racing against background builds or queries.
func (o *Oracle) SetGraph(g *cliqueapsp.Graph) (uint64, error) {
	if g == nil {
		return 0, fmt.Errorf("oracle: nil graph")
	}
	g = copyGraph(g)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, ErrClosed
	}
	o.version++
	o.graphSet = true
	// A fresh upload supersedes any queued deltas: deltas describe changes
	// to a lineage this graph just replaced, so the work degrades to a full
	// rebuild of the newest graph.
	o.pending = &pendingWork{g: g, v: o.version}
	o.latestG, o.latestV = g, o.version
	o.kickLocked()
	return o.version, nil
}

// kickLocked ensures the build loop is running. Callers hold o.mu.
func (o *Oracle) kickLocked() {
	if !o.building {
		o.building = true
		o.wg.Add(1)
		go o.buildLoop()
	}
}

// ApplyDelta validates d against the newest registered graph (queued or
// in-flight work if any, else the serving snapshot's graph), schedules the
// successor snapshot, and returns the version it will publish under. Small deltas
// against a hot snapshot publish through the incremental repair path —
// bounded Dijkstra from the touched endpoints folded into the published
// matrix — while large dirty sets, cold bases, and approximate matrices
// facing a weight increase fall back to a coalesced full rebuild. Deltas
// arriving while work is queued coalesce onto it exactly like SetGraph
// calls do: one publish serves the newest state.
//
// An invalid delta (bad endpoint, self loop, negative weight, adding an
// existing edge, removing a missing one) mutates nothing and returns an
// error naming the offending delta index. ErrNoGraph reports that there is
// no base graph to patch.
func (o *Oracle) ApplyDelta(d cliqueapsp.GraphDelta) (uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, ErrClosed
	}
	if o.pending != nil {
		// Coalesce onto the queued work: the delta extends the newest graph,
		// and the pending unit keeps its shape (a queued full rebuild stays a
		// full rebuild; a queued repair grows its trail).
		g, err := o.pending.g.Apply(d)
		if err != nil {
			return 0, err
		}
		o.version++
		o.graphSet = true
		o.cnt.coalescedDeltas.Add(uint64(len(d.Edges)))
		work := &pendingWork{g: g, v: o.version, baseV: o.pending.baseV}
		if o.pending.deltas != nil {
			work.deltas = append(o.pending.deltas[:len(o.pending.deltas):len(o.pending.deltas)], d.Edges...)
		}
		o.pending = work
		o.latestG, o.latestV = g, o.version
		o.kickLocked()
		return o.version, nil
	}
	// No queued unit: the delta extends the newest accepted graph. That is
	// latestG when one exists — it also covers work the build loop already
	// popped but has not published yet — and otherwise the serving snapshot's
	// graph (a restored or rehydrated tenant that never saw a live upload).
	// A cold base decodes its graph from the snapshot file: it always
	// rebuilds, but the delta still needs a graph to validate against.
	base, baseV := o.latestG, o.latestV
	if base == nil {
		cur := o.cur.Load()
		if cur == nil {
			return 0, ErrNoGraph
		}
		bg, err := cur.src.GraphCtx(context.Background())
		if err != nil {
			return 0, fmt.Errorf("%w: %w", ErrColdRead, err)
		}
		base, baseV = bg, cur.version
	}
	g, err := base.Apply(d)
	if err != nil {
		return 0, err
	}
	o.version++
	o.graphSet = true
	o.pending = &pendingWork{
		g:      g,
		v:      o.version,
		deltas: append([]cliqueapsp.EdgeDelta(nil), d.Edges...),
		baseV:  baseV,
	}
	o.latestG, o.latestV = g, o.version
	o.kickLocked()
	return o.version, nil
}

// copyGraph snapshots the caller's graph at registration time: one O(m)
// pass, trivial next to the engine run it feeds.
func copyGraph(g *cliqueapsp.Graph) *cliqueapsp.Graph {
	cp := cliqueapsp.NewGraph(g.N())
	for _, e := range g.Edges() {
		if err := cp.AddEdge(e.U, e.V, e.W); err != nil {
			// Unreachable: e came out of a validated graph.
			panic(fmt.Sprintf("oracle: copying edge %+v: %v", e, err))
		}
	}
	return cp
}

// buildLoop drains pending work until none remains, publishing a snapshot
// per unit — through the engine for full rebuilds, through the repair path
// for small deltas. At most one buildLoop runs at a time (o.building).
func (o *Oracle) buildLoop() {
	defer o.wg.Done()
	for {
		o.mu.Lock()
		if o.pending == nil || o.closed {
			o.building = false
			o.mu.Unlock()
			return
		}
		o.mu.Unlock()

		// Fleet admission: wait for a build slot BEFORE popping the pending
		// work, so uploads and deltas arriving while this tenant queues keep
		// coalescing and the publish that finally runs serves the newest
		// state. Queue wait is charged to the gate's accounting, not to
		// BuildTimeout (which starts inside build). A repair occupies a slot
		// like a build does: it is cheaper, but it still burns CPU the fleet
		// budgeted.
		gateStart := time.Now()
		if err := o.cfg.gate.Acquire(o.ctx); err != nil {
			// Only a dying oracle cancels o.ctx; the loop top observes
			// closed and exits.
			continue
		}
		gateWait := time.Since(gateStart)

		o.mu.Lock()
		w := o.pending
		if w == nil || o.closed {
			o.building = false
			o.mu.Unlock()
			o.cfg.gate.Release()
			return
		}
		o.pending = nil
		o.mu.Unlock()

		// Repair or rebuild? Decided after the pop so the choice sees the
		// final coalesced unit, and before the trace root so the trace is
		// named for what actually ran.
		plan := o.planRepair(w)

		// Every publish attempt gets its own trace (root ends once the
		// report below has run): builds are rare, and the child
		// spans are a flame view of the pipeline (or repair) itself. An
		// abandoned root is simply never submitted.
		rootName := "oracle.build"
		if plan != nil {
			rootName = "oracle.repair"
		}
		root := o.cfg.Tracer.StartRoot(rootName, trace.TraceID{}, trace.SpanID{})
		if root != nil {
			if o.cfg.name != "" {
				root.SetAttr("tenant", o.cfg.name)
			}
			root.SetInt("version", int64(w.v))
			root.SetInt("graph_n", int64(w.g.N()))
			if w.deltas != nil {
				root.SetInt("deltas", int64(len(w.deltas)))
				root.SetInt("base_version", int64(w.baseV))
			}
			if plan != nil {
				root.SetInt("dirty", int64(len(plan.dirty)))
			}
		}
		root.AddChild("build.gate_wait", gateStart, gateWait)

		start := time.Now()
		var (
			snap   *snapshot
			full   *cliqueapsp.DistanceMatrix // the estimate snap packed; persist's to read
			phases []PhaseTiming
			err    error
		)
		repaired := plan != nil
		if repaired {
			snap, full, phases = o.repair(w, plan)
		} else {
			snap, full, phases, err = o.build(w.g, w.v)
		}
		o.cfg.gate.Release()
		elapsed := time.Since(start)
		// The phases ran sequentially inside build/repair, so their spans
		// reconstruct as siblings with cumulative starts.
		phaseStart := start
		for _, p := range phases {
			root.AddChild("phase."+p.Phase, phaseStart, p.Duration)
			phaseStart = phaseStart.Add(p.Duration)
		}
		root.SetError(err)
		if err == nil {
			snap.buildDur = elapsed // set before publishing: snapshots are immutable once stored
			snap.phases = phases
			// The persist call runs before the snapshot is stored, so no
			// query or waiter can observe the version until it is durable.
			// The previous snapshot keeps serving meanwhile. Repaired
			// snapshots persist like built ones — with their provenance —
			// so restore, tiering and GC treat them identically. The full
			// matrix goes no further than persist: the snapshot serves
			// from its packed triangle.
			if o.cfg.persist != nil {
				p := published{version: w.v, graph: w.g, res: snap.res, dist: full}
				if repaired {
					p.baseVersion, p.deltaCount = w.baseV, len(w.deltas)
				}
				pubStart := time.Now()
				o.cfg.persist(p)
				root.AddChild("oracle.publish", pubStart, time.Since(pubStart))
			}
			o.mu.Lock()
			// Version-monotonic under the lock, as a belt: publishes are
			// serialized with increasing versions and restores are refused
			// once a SetGraph was accepted, so cur can never be newer here.
			if cur := o.cur.Load(); cur == nil || cur.version < w.v {
				o.cur.Store(snap)
			}
			o.mu.Unlock()
			if repaired {
				o.cnt.repairs.Add(1)
			} else {
				o.cnt.rebuilds.Add(1)
			}
		} else {
			o.cnt.rebuildErrors.Add(1)
		}

		// The report runs, and the trace is stored, before the attempt is
		// recorded: Wait keys on lastDone, so a waiter never returns before
		// its version's report, and finds the build's trace in the store.
		if o.cfg.report != nil {
			o.cfg.report(o.cfg.name, buildReport{version: w.v, repaired: repaired, elapsed: elapsed, phases: phases, err: err})
		}
		root.End()

		// Going idle before waking the waiters means a caller whose Wait
		// returned never finds this oracle still building: eviction skips
		// building tenants.
		o.mu.Lock()
		o.lastDone, o.lastErr = w.v, err
		idle := o.pending == nil
		if idle {
			o.building = false
		}
		o.wakeLocked()
		o.mu.Unlock()
		if idle {
			return
		}
	}
}

// build runs the engine once and packs the result as a snapshot, returning
// the full estimate for persist and the per-phase timing of the run whether
// or not it succeeded.
func (o *Oracle) build(g *cliqueapsp.Graph, version uint64) (*snapshot, *cliqueapsp.DistanceMatrix, []PhaseTiming, error) {
	ctx := o.ctx
	if o.cfg.BuildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.cfg.BuildTimeout)
		defer cancel()
	}
	opts := make([]cliqueapsp.RunOption, 0, len(o.cfg.RunOptions)+3)
	if o.cfg.Algorithm != "" {
		opts = append(opts, cliqueapsp.WithAlgorithm(o.cfg.Algorithm))
	}
	if o.cfg.Eps > 0 {
		opts = append(opts, cliqueapsp.WithEps(o.cfg.Eps))
	}
	opts = append(opts, o.cfg.RunOptions...)
	// The recorder goes last so it always wins: phase timing is serving
	// infrastructure, not a per-run choice (Config.RunOptions documents this).
	rec := &phaseRecorder{}
	opts = append(opts, cliqueapsp.WithProgress(rec.mark))
	res, err := o.eng.Run(ctx, g, opts...)
	phases := rec.finish()
	if err != nil {
		return nil, nil, phases, err
	}
	snap, err := newSnapshot(version, g, res)
	if err != nil {
		return nil, nil, phases, err
	}
	return snap, res.Distances, phases, nil
}

// RestoreSnapshot publishes a previously computed (typically persisted and
// decoded) build as the serving snapshot without running the Engine: the
// restore path of the store subsystem. The oracle takes ownership of g —
// the caller must not mutate it afterwards (a decoded snapshot is exactly
// that: freshly owned, so no defensive copy is made). It packs res's
// estimate into a triangle of its own and keeps neither res nor its matrix,
// so a hot restore holds each pair once, as a build does. The snapshot
// serves under version, and future SetGraph calls are assigned strictly
// larger versions so a later upload always supersedes the restore.
//
// Restoring is allowed only into a pristine oracle — no serving snapshot
// and no SetGraph accepted yet — and returns ErrSuperseded otherwise. A
// persisted version number comes from a previous process's counter and is
// not comparable with this oracle's: if a caller managed to register a
// graph before the restore landed, that live intent must win, never be
// shadowed by old disk state. Waiters blocked in Wait(ctx, v) with
// v ≤ version are released. An asymmetric estimate is refused, as a build
// of one is.
func (o *Oracle) RestoreSnapshot(version uint64, g *cliqueapsp.Graph, res *cliqueapsp.Result) error {
	if version == 0 {
		return fmt.Errorf("oracle: restore version must be ≥ 1")
	}
	if g == nil || res == nil || res.Distances == nil {
		return fmt.Errorf("oracle: nil graph or result")
	}
	if res.Distances.N() != g.N() {
		return fmt.Errorf("oracle: %d×%d distances for %d nodes", res.Distances.N(), res.Distances.N(), g.N())
	}
	snap, err := newSnapshot(version, g, res)
	if err != nil {
		return err
	}
	return o.publishRestore(snap)
}

// restoreCold publishes a disk-backed snapshot with RestoreSnapshot's
// semantics at tier cost: opening r read only the snapshot header, never
// the O(n²) row block. The oracle takes ownership of r.
func (o *Oracle) restoreCold(r *tier.Reader) error {
	return o.publishRestore(newColdSnapshot(r))
}

// publishRestore installs s as the first serving snapshot of a pristine
// oracle and releases waiters on its version. Live intent wins: a serving
// snapshot or an accepted SetGraph refuses the restore with ErrSuperseded.
func (o *Oracle) publishRestore(s *snapshot) error {
	if s.version == 0 {
		return fmt.Errorf("oracle: restore version must be ≥ 1")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrClosed
	}
	if o.graphSet || o.cur.Load() != nil {
		return fmt.Errorf("%w: restore v%d refused (last assigned version %d)", ErrSuperseded, s.version, o.version)
	}
	if o.version < s.version {
		o.version = s.version
	}
	o.cur.Store(s)
	o.cnt.restores.Add(1)
	o.lastDone, o.lastErr = s.version, nil
	o.wakeLocked()
	return nil
}

// swapTier replaces the serving snapshot with next: the same version read
// from the other tier. Demotion frees the resident matrix once in-flight
// queries finish; promotion brings it back. ErrSuperseded means the serving
// snapshot is no longer that version on the opposite tier (a build landed,
// or a concurrent swap won); the caller still owns next's source then.
func (o *Oracle) swapTier(next *snapshot) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrClosed
	}
	cur := o.cur.Load()
	if cur == nil || cur.version != next.version || (cur.reader() == nil) == (next.reader() == nil) {
		return fmt.Errorf("%w: tier swap of v%d does not match serving snapshot", ErrSuperseded, next.version)
	}
	o.cur.Store(next)
	return nil
}

// coldReader returns the serving snapshot's tier reader (nil when the
// snapshot is hot or absent) — the Manager's window into cold residency.
func (o *Oracle) coldReader() *tier.Reader {
	if s := o.cur.Load(); s != nil {
		return s.reader()
	}
	return nil
}

// wakeLocked releases every Wait blocked on the current notify channel.
// Callers hold o.mu.
func (o *Oracle) wakeLocked() {
	close(o.notify)
	o.notify = make(chan struct{})
}

// Wait blocks until a snapshot with version ≥ version is serving, the build
// responsible for it fails (returning that build's error), the context is
// done, or the oracle is closed. It returns only once the publishing
// attempt is complete: under a Manager, its hooks for the version have run.
func (o *Oracle) Wait(ctx context.Context, version uint64) error {
	for {
		o.mu.Lock()
		ch := o.notify
		done, doneErr, closed := o.lastDone, o.lastErr, o.closed
		o.mu.Unlock()
		if done >= version {
			// A failed attempt still satisfies waiters on a version an
			// earlier, completed build already serves.
			if s := o.cur.Load(); doneErr == nil || (s != nil && s.version >= version) {
				return nil
			}
			return doneErr
		}
		if closed {
			return ErrClosed
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Ready reports whether a snapshot is serving.
func (o *Oracle) Ready() bool { return o.cur.Load() != nil }

// Version returns the serving snapshot's version (0 before the first build).
func (o *Oracle) Version() uint64 {
	if s := o.cur.Load(); s != nil {
		return s.version
	}
	return 0
}

// Close stops background rebuilding (aborting any in-flight engine run at
// its next phase boundary) and waits for the build goroutine to exit.
// Queries keep serving the last published snapshot; SetGraph and Wait
// return ErrClosed afterwards. Close is idempotent.
func (o *Oracle) Close() {
	o.mu.Lock()
	if !o.closed {
		o.closed = true
		o.wakeLocked()
	}
	o.mu.Unlock()
	o.stop()
	o.wg.Wait()
}

// Dist answers one distance query from the current snapshot.
func (o *Oracle) Dist(u, v int) (DistResult, error) {
	return o.DistCtx(context.Background(), u, v)
}

// DistCtx is Dist with a caller context: when ctx carries an active
// trace span (a sampled request), the query records an "oracle.dist"
// child span and the tier layer hangs its row-read spans below it. On an
// unsampled context the tracing calls are nil no-ops — zero allocations.
func (o *Oracle) DistCtx(ctx context.Context, u, v int) (DistResult, error) {
	s := o.cur.Load()
	if s == nil {
		return DistResult{}, ErrNotReady
	}
	if err := s.check(u, v); err != nil {
		return DistResult{}, err
	}
	ctx, sp := trace.StartSpan(ctx, "oracle.dist")
	sp.SetInt("u", int64(u))
	sp.SetInt("v", int64(v))
	sp.SetInt("version", int64(s.version))
	o.cnt.distQueries.Add(1)
	o.cnt.answers.Add(1)
	a, err := s.answer(ctx, u, v)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return DistResult{}, err
	}
	if s.reader() != nil {
		o.cnt.coldServes.Add(1)
	}
	sp.End()
	return DistResult{Answer: a, Version: s.version}, nil
}

// Batch answers every pair from one snapshot resolved once at entry, so the
// result is internally consistent even while a rebuild swaps snapshots
// mid-flight. A batch of distance lookups is O(1) per pair against the
// snapshot's row storage.
func (o *Oracle) Batch(pairs []Pair) (BatchResult, error) {
	return o.BatchCtx(context.Background(), pairs)
}

// BatchCtx is Batch with a caller context; see DistCtx for the tracing
// contract. The span records the pair count, and the per-trace span cap
// keeps a sampled mega-batch from recording one span per row read.
func (o *Oracle) BatchCtx(ctx context.Context, pairs []Pair) (BatchResult, error) {
	s := o.cur.Load()
	if s == nil {
		return BatchResult{}, ErrNotReady
	}
	for _, p := range pairs {
		if err := s.check(p.U, p.V); err != nil {
			return BatchResult{}, err
		}
	}
	ctx, sp := trace.StartSpan(ctx, "oracle.batch")
	sp.SetInt("pairs", int64(len(pairs)))
	sp.SetInt("version", int64(s.version))
	o.cnt.batchQueries.Add(1)
	o.cnt.answers.Add(uint64(len(pairs)))
	answers := make([]Answer, len(pairs))
	for i, p := range pairs {
		a, err := s.answer(ctx, p.U, p.V)
		if err != nil {
			sp.SetError(err)
			sp.End()
			return BatchResult{}, err
		}
		answers[i] = a
	}
	if s.reader() != nil {
		o.cnt.coldServes.Add(1)
	}
	sp.End()
	return BatchResult{Version: s.version, Answers: answers}, nil
}

// Path answers one path query by greedy routing on the current snapshot,
// reading every hop off the destination's distance row (one row read per
// query, no state kept). With approximate estimates greedy forwarding
// often dead-ends or loops on reachable pairs: on RandomGraph(n, 100, 1)
// under AlgConstant at seed 1 it fails on about 12–14% of sampled reachable
// pairs at n=256 and about 24% at n=1024. Such a pair is reported as
// cliqueapsp.ErrNoRoute rather than as a wrong path.
func (o *Oracle) Path(u, v int) (PathResult, error) {
	return o.PathCtx(context.Background(), u, v)
}

// PathCtx is Path with a caller context; see DistCtx for the tracing
// contract.
func (o *Oracle) PathCtx(ctx context.Context, u, v int) (PathResult, error) {
	s := o.cur.Load()
	if s == nil {
		return PathResult{}, ErrNotReady
	}
	if err := s.check(u, v); err != nil {
		return PathResult{}, err
	}
	ctx, sp := trace.StartSpan(ctx, "oracle.path")
	sp.SetInt("u", int64(u))
	sp.SetInt("v", int64(v))
	sp.SetInt("version", int64(s.version))
	o.cnt.pathQueries.Add(1)
	o.cnt.answers.Add(1)
	res, err := s.path(ctx, u, v)
	if err == nil && s.reader() != nil {
		o.cnt.coldServes.Add(1)
	}
	sp.SetError(err)
	sp.End()
	return res, err
}

// Stats returns the oracle's current counters.
func (o *Oracle) Stats() Stats {
	st := Stats{
		DistQueries:     o.cnt.distQueries.Load(),
		BatchQueries:    o.cnt.batchQueries.Load(),
		PathQueries:     o.cnt.pathQueries.Load(),
		Answers:         o.cnt.answers.Load(),
		Rebuilds:        o.cnt.rebuilds.Load(),
		RebuildErrors:   o.cnt.rebuildErrors.Load(),
		Repairs:         o.cnt.repairs.Load(),
		RepairFallbacks: o.cnt.repairFallbacks.Load(),
		CoalescedDeltas: o.cnt.coalescedDeltas.Load(),
		Restores:        o.cnt.restores.Load(),
		ColdServes:      o.cnt.coldServes.Load(),
	}
	if s := o.cur.Load(); s != nil {
		st.Version = s.version
		st.SnapshotAge = time.Since(s.builtAt)
		st.GraphN = s.n
		st.GraphM = s.m
		st.Algorithm = string(s.res.Algorithm)
		st.FactorBound = s.res.FactorBound
		st.LastRebuild = s.buildDur
		st.LastBuildPhases = s.phases
		if r := s.reader(); r != nil {
			st.Tier = "cold"
			cs := r.Stats()
			st.RowCache = &cs
		} else {
			st.Tier = "hot"
		}
	}
	o.mu.Lock()
	st.Pending = o.building || o.pending != nil
	o.mu.Unlock()
	return st
}
