package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
	"github.com/congestedclique/cliqueapsp/internal/sched"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

// The traced run calls each layer's public functions in-process, replaying
// the workload's inputs, and records a span around every call. It never
// feeds the end-to-end metrics.

// span is one timed call. An op's root span has Parent -1; a layer's self
// time is its span minus the part its children cover.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func (tr *tracer) at(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

// add records a span timed by the caller; parent -1 starts a new op.
func (tr *tracer) add(parent int, name string, start, end time.Time) int {
	op := tr.ops
	if parent >= 0 {
		op = tr.spans[parent].Op
	} else {
		tr.ops++
	}
	tr.spans = append(tr.spans, span{Op: op, ID: len(tr.spans), Parent: parent, Name: name,
		Start: tr.at(start), End: tr.at(end)})
	return len(tr.spans) - 1
}

// time runs fn inside a new span and returns the span's id.
func (tr *tracer) time(parent int, name string, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return tr.add(parent, name, start, time.Now()), err
}

func (tr *tracer) dur(id int) time.Duration {
	return time.Duration(tr.spans[id].End - tr.spans[id].Start)
}

// selfTimes returns every span's self time: its duration minus the union
// of its children's intervals, clipped to its own.
func (tr *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return tr.spans[ks[a]].Start < tr.spans[ks[b]].Start })
		covered, cur := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(tr.spans[k].Start, cur), min(tr.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// traced is one traced run.
type traced struct {
	e   env
	w   workload
	in  inputs
	tr  tracer
	rep *report
	m   map[string]float64

	res     *cliqueapsp.Result // the workload's set-up build
	publish []time.Duration    // in-process SetGraph→publish, per graph
	inproc  []time.Duration    // in-process time of each op of the cycle, warm
}

// perLayer is every per-layer metric with its unit; BENCHMARK.json lists
// the same names and units.
var perLayer = func() map[string]string {
	m := map[string]string{
		"ccserve.overhead_us":        "us",
		"ccserve.req_bytes":          "bytes",
		"ccserve.resp_bytes":         "bytes",
		"ccserve.upload_overhead_ms": "ms",
		"oracle.dist_ns":             "ns",
		"oracle.batch64_us":          "us",
		"oracle.path_us":             "us",
		"oracle.path_row_build_us":   "us",
		"oracle.row_hit_ratio":       "ratio",
		"oracle.publish_ms":          "ms",
		"oracle.repair_ms":           "ms",
		"oracle.fallback_ms":         "ms",
		"oracle.fallback_ratio":      "ratio",
		"oracle.fallbacks":           "count",
		"oracle.coalesced_deltas":    "count",
		"engine.run_ms":              "ms",
		"engine.rounds":              "count",
		"engine.messages":            "count",
		"engine.words":               "count",
		"engine.violations":          "count",
		"minplus.mul_ms":             "ms",
		"minplus.gflops":             "Gop/s",
		"tier.open_ms":               "ms",
		"tier.row_miss_us":           "us",
		"tier.row_hit_ns":            "ns",
		"tier.hit_ratio":             "ratio",
		"tier.graph_decode_ms":       "ms",
		"store.save_ms":              "ms",
		"store.encode_mb_per_s":      "MB/s",
		"store.load_ms":              "ms",
		"store.snapshot_mb":          "MB",
		"trace.overhead_pct":         "%",
		"trace.http_gap_us":          "us",
		"trace.http_gap_pct":         "%",
	}
	for _, p := range enginePhases {
		m[phaseMetric(p)] = "ms"
	}
	return m
}()

// enginePhases are the pipeline phases of the two algorithms the workloads
// use (constant, then exact), as the engine's progress checkpoints name them.
var enginePhases = []string{
	"theorem11/knearest", "theorem11/skeleton", "theorem11/thm81-on-skeleton",
	"largebw/bootstrap", "largebw/hopset", "largebw/scaled-instances",
	"smalldiam/bootstrap", "smalldiam/reduce", "smalldiam/final",
	"largebw/skeleton", "theorem11/translate",
	"exact-squaring",
}

func phaseMetric(phase string) string {
	return "engine.phase." + strings.ReplaceAll(phase, "/", ".") + "_ms"
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msMedian(ds []time.Duration) float64 { return median(durs(ds, time.Millisecond)) }

// runTraced runs workload w's traced replay and writes its spans to dir.
func runTraced(e env, w workload, dir string) (*report, error) {
	t := &traced{e: e, w: w, tr: tracer{t0: time.Now()}, rep: newReport()}
	t.in = w.makeInputs(e.seed, patchCount(w, e.seconds))
	t.m = t.rep.metrics
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"engine", t.engine},
		{"minplus", t.minplus},
		{"oracle reads", t.oracleReads},
		{"oracle writes", t.oracleWrites},
		{"store and tier", t.storeTier},
		{"ccserve", t.http},
	} {
		if err := step.fn(); err != nil {
			return nil, fmt.Errorf("%s: %w", step.name, err)
		}
	}
	t.summarizeSpans()
	if err := t.writeSpans(dir); err != nil {
		return nil, err
	}
	return t.rep, nil
}

// buildOptions are the engine options ccserve gives a tenant build.
func buildOptions(alg string, seed int64) []cliqueapsp.RunOption {
	return []cliqueapsp.RunOption{
		cliqueapsp.WithAlgorithm(cliqueapsp.Algorithm(alg)),
		cliqueapsp.WithEps(serveEps),
		cliqueapsp.WithT(1),
		cliqueapsp.WithDeterministicRun(false),
		cliqueapsp.WithSeed(seed),
	}
}

// engine runs Engine.Run on every graph of the workload twice, with a span
// per run and one per pipeline phase, and checks that the model cost —
// rounds, messages, words, violations — is identical across the two: a
// noise-free check that the seeds are pinned. One more build with the
// other algorithm covers the remaining phase metrics.
func (t *traced) engine() error {
	eng := t.newEngine()
	type cost struct{ rounds, messages, words, violations int64 }
	phases := map[string][]float64{}
	build := func(g *cliqueapsp.Graph, alg string) (*cliqueapsp.Result, time.Duration, error) {
		var mu sync.Mutex
		type mark struct {
			name string
			at   time.Time
		}
		var marks []mark
		opts := append(buildOptions(alg, t.in.tenantSeed), cliqueapsp.WithProgress(func(p string) {
			mu.Lock()
			marks = append(marks, mark{p, time.Now()})
			mu.Unlock()
		}))
		var res *cliqueapsp.Result
		root, err := t.tr.time(-1, "engine.run", func() (err error) {
			res, err = eng.Run(context.Background(), g, opts...)
			return err
		})
		end := t.tr.t0.Add(time.Duration(t.tr.spans[root].End))
		per := map[string]float64{}
		for i, mk := range marks {
			next := end
			if i+1 < len(marks) {
				next = marks[i+1].at
			}
			t.tr.add(root, "engine.phase."+mk.name, mk.at, next)
			per[mk.name] += ms(next.Sub(mk.at))
		}
		for name, v := range per {
			phases[name] = append(phases[name], v)
		}
		return res, t.tr.dur(root), err
	}
	var runs []time.Duration
	var first []cost
	for rep := 0; rep < 2; rep++ {
		for gi, g := range t.in.graphs {
			res, d, err := build(g, t.w.alg)
			if err != nil {
				return err
			}
			runs = append(runs, d)
			c := cost{res.Rounds, res.Messages, res.Words, int64(len(res.Violations))}
			if rep == 0 {
				first = append(first, c)
				if gi == 0 {
					t.res = res
				}
			} else if c != first[gi] {
				t.rep.fail("engine", 1, fmt.Errorf("graph %d: model cost %+v, then %+v on an identical build", gi, first[gi], c))
			}
			t.rep.class("engine").Attempted++
		}
	}
	other := "exact"
	if t.w.alg == "exact" {
		other = "constant"
	}
	if _, _, err := build(t.in.graphs[0], other); err != nil {
		return err
	}
	t.m["engine.run_ms"] = msMedian(runs)
	for _, p := range enginePhases {
		t.m[phaseMetric(p)] = median(phases[p])
	}
	var sum cost
	for _, c := range first {
		sum.rounds += c.rounds
		sum.messages += c.messages
		sum.words += c.words
		sum.violations += c.violations
	}
	t.m["engine.rounds"] = float64(sum.rounds)
	t.m["engine.messages"] = float64(sum.messages)
	t.m["engine.words"] = float64(sum.words)
	t.m["engine.violations"] = float64(sum.violations)
	if sum.violations != 0 {
		t.rep.fail("engine", 1, fmt.Errorf("%d congested-clique load violations", sum.violations))
	}
	return nil
}

// minplus squares the set-up build's distance matrix with the min-plus
// kernel on the full shared pool.
func (t *traced) minplus() error {
	d := minplus.FromRows(t.res.Distances.ToSlices())
	dst := minplus.NewDense(d.N())
	grp := sched.Shared().Group(context.Background(), 0)
	var runs []time.Duration
	for i := 0; i < 3; i++ {
		id, err := t.tr.time(-1, "minplus.mul", func() error { return d.MulTo(grp, dst, d) })
		if err != nil {
			return err
		}
		runs = append(runs, t.tr.dur(id))
	}
	n := float64(d.N())
	t.m["minplus.mul_ms"] = msMedian(runs)
	t.m["minplus.gflops"] = 2 * n * n * n / (t.m["minplus.mul_ms"] / 1e3) / 1e9
	return nil
}

// newEngine returns an engine with the workload's kernel parallelism, as
// ccserve builds one.
func (t *traced) newEngine() *cliqueapsp.Engine {
	return cliqueapsp.New(cliqueapsp.WithParallelism(t.w.kernelPar))
}

// manager returns an oracle.Manager configured as ccserve configures one,
// with builds reported to onBuild.
func (t *traced) manager(cfg oracle.ManagerConfig, onBuild func(time.Duration)) *oracle.Manager {
	cfg.Base = oracle.Config{Engine: t.newEngine(), Eps: serveEps, RunOptions: []cliqueapsp.RunOption{
		cliqueapsp.WithT(1), cliqueapsp.WithDeterministicRun(false)}}
	cfg.OnRebuild = func(_ string, _ uint64, d time.Duration, _ error) { onBuild(d) }
	return oracle.NewManager(cfg)
}

// setGraph publishes g on tn inside an "oracle.setgraph" span whose child is
// the engine build the oracle reported.
func (t *traced) setGraph(tn *oracle.Tenant, g *cliqueapsp.Graph, builds chan time.Duration) error {
	start := time.Now()
	v, err := tn.SetGraph(g)
	if err == nil {
		err = tn.Wait(context.Background(), v)
	}
	end := time.Now()
	if err != nil {
		return err
	}
	root := t.tr.add(-1, "oracle.setgraph", start, end)
	select {
	case d := <-builds:
		t.tr.add(root, "engine.build", end.Add(-d), end)
	default:
	}
	t.publish = append(t.publish, t.tr.dur(root))
	return nil
}

func (t *traced) storeDir(name string) (*store.Dir, error) {
	return store.Open(filepath.Join(t.e.work, name))
}

// readTenant hosts the workload's tenant in-process the way its ccserve
// does: hot, or restored into the disk tier by a manager whose node budget
// is below n. Every set-up graph is published once, timed.
func (t *traced) readTenant() (*oracle.Tenant, func(), error) {
	builds := make(chan time.Duration, len(t.in.graphs))
	onBuild := func(d time.Duration) {
		select {
		case builds <- d:
		default:
		}
	}
	tc := oracle.TenantConfig{Algorithm: cliqueapsp.Algorithm(t.w.alg), Seed: t.in.tenantSeed}
	if !t.w.cold {
		m := t.manager(oracle.ManagerConfig{}, onBuild)
		tn, err := m.Create(tenantName, tc)
		if err != nil {
			m.Close()
			return nil, nil, err
		}
		for _, g := range t.in.graphs {
			if err := t.setGraph(tn, g, builds); err != nil {
				m.Close()
				return nil, nil, err
			}
		}
		return tn, m.Close, nil
	}
	d, err := t.storeDir("cold")
	if err != nil {
		return nil, nil, err
	}
	ts := tier.NewStore(d)
	prep := t.manager(oracle.ManagerConfig{Store: ts, Cold: ts}, onBuild)
	tn, err := prep.Create(tenantName, tc)
	if err == nil {
		err = t.setGraph(tn, t.in.graphs[0], builds)
	}
	prep.Close()
	if err != nil {
		return nil, nil, err
	}
	m := t.manager(oracle.ManagerConfig{Store: ts, Cold: ts, MaxTotalNodes: t.w.n / 2}, onBuild)
	if _, _, err := m.RestoreAll(nil); err != nil {
		m.Close()
		return nil, nil, err
	}
	tn, err = m.Get(tenantName)
	if err == nil && tn.Stats().Tier != "cold" {
		err = fmt.Errorf("restored tenant serves from tier %q, want cold", tn.Stats().Tier)
	}
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	return tn, m.Close, nil
}

// call runs one read op in-process. A no-route path answer counts as
// answered, as it does over HTTP.
func call(tn *oracle.Tenant, o op) error {
	var err error
	switch o.kind {
	case opDist:
		_, err = tn.Dist(o.pairs[0].U, o.pairs[0].V)
	case opBatch:
		_, err = tn.Batch(o.pairs)
	default:
		_, err = tn.Path(o.pairs[0].U, o.pairs[0].V)
		if errors.Is(err, cliqueapsp.ErrNoRoute) {
			err = nil
		}
	}
	return err
}

// oracleReads replays the op cycle twice against the in-process tenant:
// first from a fresh snapshot, where path ops build next-hop rows, then
// warm, which gives each op's in-process time for ccserve.overhead_us.
func (t *traced) oracleReads() error {
	tn, closeFn, err := t.readTenant()
	if err != nil {
		return err
	}
	defer closeFn()
	// oracle.publish_ms is the self time of oracle.setgraph: the publish
	// minus the engine build inside it.
	self := t.tr.selfTimes()
	var pub []time.Duration
	for i, s := range t.tr.spans {
		if s.Name == "oracle.setgraph" {
			pub = append(pub, self[i])
		}
	}
	t.m["oracle.publish_ms"] = msMedian(pub)

	before := tn.Stats().Oracle
	byKind := map[opKind][]time.Duration{}
	var rowBuild []float64
	t.inproc = make([]time.Duration, len(t.in.ops))
	for pass := 0; pass < 2; pass++ {
		for i, o := range t.in.ops {
			built := tn.Stats().Oracle.RowsBuilt
			id, err := t.tr.time(-1, "oracle."+o.kind.String(), func() error { return call(tn, o) })
			t.rep.class("oracle."+o.kind.String()).Attempted++
			if err != nil {
				t.rep.fail("oracle."+o.kind.String(), 1, err)
				continue
			}
			d := t.tr.dur(id)
			if pass == 1 {
				t.inproc[i] = d
				byKind[o.kind] = append(byKind[o.kind], d)
			} else if rows := tn.Stats().Oracle.RowsBuilt - built; o.kind == opPath && rows > 0 {
				rowBuild = append(rowBuild, float64(d)/1e3/float64(rows))
			}
		}
	}
	after := tn.Stats().Oracle
	t.m["oracle.dist_ns"] = median(durs(byKind[opDist], time.Nanosecond))
	t.m["oracle.batch64_us"] = median(durs(byKind[opBatch], time.Microsecond))
	t.m["oracle.path_us"] = median(durs(byKind[opPath], time.Microsecond))
	t.m["oracle.path_row_build_us"] = median(rowBuild)
	hits, built := after.RowHits-before.RowHits, after.RowsBuilt-before.RowsBuilt
	t.m["oracle.row_hit_ratio"] = float64(hits) / float64(max(hits+built, 1))
	return nil
}

// oracleWrites replays single-edge deltas with a wait for each publish:
// patch-mixed's whole stream against a persisted exact tenant, or, for the
// other workloads, a probe of one weight decrease and one edge removal
// against a hot tenant of the workload's algorithm.
func (t *traced) oracleWrites() error {
	builds := make(chan time.Duration, 1)
	cfg := oracle.ManagerConfig{}
	deltas := t.in.deltas
	if t.w.patches {
		d, err := t.storeDir("patch")
		if err != nil {
			return err
		}
		ts := tier.NewStore(d)
		cfg.Store, cfg.Cold = ts, ts
	} else {
		deltas = probeDeltas(t.in.graphs[0])
	}
	m := t.manager(cfg, func(d time.Duration) {
		select {
		case builds <- d:
		default:
		}
	})
	defer m.Close()
	tn, err := m.Create("writes", oracle.TenantConfig{Algorithm: cliqueapsp.Algorithm(t.w.alg), Seed: t.in.tenantSeed})
	if err != nil {
		return err
	}
	v, err := tn.SetGraph(t.in.graphs[0])
	if err == nil {
		err = tn.Wait(context.Background(), v)
	}
	if err != nil {
		return err
	}
	<-builds
	var repaired, fellBack []time.Duration
	for _, e := range deltas {
		st := tn.Stats().Oracle
		start := time.Now()
		v, err := tn.ApplyDelta(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{e}})
		if err == nil {
			err = tn.Wait(context.Background(), v)
		}
		end := time.Now()
		t.rep.class("oracle.patch").Attempted++
		if err != nil {
			t.rep.fail("oracle.patch", 1, err)
			continue
		}
		root := t.tr.add(-1, "oracle.patch", start, end)
		now := tn.Stats().Oracle
		switch {
		case now.RepairFallbacks > st.RepairFallbacks:
			select {
			case d := <-builds:
				t.tr.add(root, "engine.build", end.Add(-d), end)
			default:
			}
			fellBack = append(fellBack, t.tr.dur(root))
		default:
			repaired = append(repaired, t.tr.dur(root))
		}
	}
	st := tn.Stats().Oracle
	t.m["oracle.repair_ms"] = msMedian(repaired)
	t.m["oracle.fallback_ms"] = msMedian(fellBack)
	t.m["oracle.fallbacks"] = float64(len(fellBack))
	t.m["oracle.fallback_ratio"] = float64(len(fellBack)) / float64(max(len(deltas), 1))
	t.m["oracle.coalesced_deltas"] = float64(st.CoalescedDeltas)
	if st.CoalescedDeltas != 0 {
		t.rep.fail("oracle.patch", 1, fmt.Errorf("%d deltas coalesced; every delta must publish on its own", st.CoalescedDeltas))
	}
	return nil
}

// probeDeltas is a two-delta write probe on g: lower the weight of its first
// edge heavier than 1, then remove its last edge. On an approximate
// estimate the decrease repairs and the removal falls back to a rebuild.
func probeDeltas(g *cliqueapsp.Graph) []cliqueapsp.EdgeDelta {
	edges := g.Edges()
	var out []cliqueapsp.EdgeDelta
	for _, e := range edges {
		if e.W > 1 {
			out = append(out, cliqueapsp.EdgeDelta{Op: cliqueapsp.DeltaReweight, U: e.U, V: e.V, W: 1})
			break
		}
	}
	last := edges[len(edges)-1]
	return append(out, cliqueapsp.EdgeDelta{Op: cliqueapsp.DeltaRemove, U: last.U, V: last.V})
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// storeTier encodes, saves and loads the set-up build's snapshot, then
// opens it in the disk tier and replays the op cycle's row reads through a
// reader with ccserve's default 64-row cache.
func (t *traced) storeTier() error {
	d, err := t.storeDir("store")
	if err != nil {
		return err
	}
	snap := func(v uint64) *store.Snapshot {
		return &store.Snapshot{Version: v, Algorithm: string(t.res.Algorithm), FactorBound: t.res.FactorBound,
			Eps: serveEps, Seed: t.res.Seed, SeedPinned: true, Engine: cliqueapsp.EngineVersion,
			Graph: t.in.graphs[0], Distances: t.res.Distances}
	}
	var enc, save, load, open, decode []time.Duration
	var size int64
	for v := uint64(1); v <= 3; v++ {
		var cw countWriter
		id, err := t.tr.time(-1, "store.encode", func() error { return store.Encode(&cw, snap(v)) })
		if err != nil {
			return err
		}
		enc, size = append(enc, t.tr.dur(id)), cw.n
		id, err = t.tr.time(-1, "store.save", func() error { return d.Save(tenantName, snap(v)) })
		if err != nil {
			return err
		}
		save = append(save, t.tr.dur(id))
		id, err = t.tr.time(-1, "store.load", func() error { _, err := d.Load(tenantName); return err })
		if err != nil {
			return err
		}
		load = append(load, t.tr.dur(id))
	}
	ts := tier.NewStore(d)
	var r *tier.Reader
	for i := 0; i < 3; i++ {
		if r != nil {
			r.Close()
		}
		id, err := t.tr.time(-1, "tier.open", func() (err error) {
			r, err = ts.OpenCold(tenantName, 3, 64)
			return err
		})
		if err != nil {
			return err
		}
		open = append(open, t.tr.dur(id))
		id, err = t.tr.time(-1, "tier.graph_decode", func() error { _, err := r.Graph(); return err })
		if err != nil {
			return err
		}
		decode = append(decode, t.tr.dur(id))
	}
	defer r.Close()
	var hit, miss []time.Duration
	for _, o := range t.in.ops {
		for _, p := range o.pairs {
			before := r.Stats().Misses
			id, err := t.tr.time(-1, "tier.row", func() error { _, err := r.Row(p.U); return err })
			if err != nil {
				return err
			}
			if r.Stats().Misses > before {
				miss = append(miss, t.tr.dur(id))
			} else {
				hit = append(hit, t.tr.dur(id))
			}
		}
	}
	mb := float64(size) / 1e6
	t.m["store.snapshot_mb"] = mb
	t.m["store.encode_mb_per_s"] = mb / (msMedian(enc) / 1e3)
	t.m["store.save_ms"] = msMedian(save)
	t.m["store.load_ms"] = msMedian(load)
	t.m["tier.open_ms"] = msMedian(open)
	t.m["tier.graph_decode_ms"] = msMedian(decode)
	t.m["tier.row_miss_us"] = median(durs(miss, time.Microsecond))
	t.m["tier.row_hit_ns"] = median(durs(hit, time.Nanosecond))
	t.m["tier.hit_ratio"] = float64(len(hit)) / float64(len(hit)+len(miss))
	return nil
}

// http measures what ccserve adds over the in-process calls: the same
// uploads and the same op cycle sent over loopback, each compared with its
// in-process time. It then measures the read rate at -tracesample 0 and 1,
// and reads ccserve's own span tree for the traced ops to split each op's
// client-side time into server spans and the gap outside them.
func (t *traced) http() error {
	b, err := newBench(t.e, t.w, 1, 1)
	if err != nil {
		return err
	}
	defer b.stopServer()
	if err := t.serve(b); err != nil {
		return err
	}
	// Upload overhead: every graph of the workload over HTTP against the
	// in-process publish of the same graph.
	ups := b.setupUploads[:1:1]
	for _, g := range t.in.graphs[1:] {
		t0 := time.Now()
		if _, err := b.srv.upload(graphJSON(g)); err != nil {
			return err
		}
		ups = append(ups, time.Since(t0))
	}
	var over []float64
	for i, d := range ups {
		if i < len(t.publish) {
			over = append(over, ms(d-t.publish[i]))
		}
	}
	t.m["ccserve.upload_overhead_ms"] = median(over)
	if err := b.warmReads(); err != nil {
		return err
	}
	var buf bytes.Buffer
	var diff []float64
	var req, resp int64
	for i, o := range t.in.ops {
		t.rep.class("ccserve").Attempted++
		t0 := time.Now()
		err := b.srv.do(o.method(), o.path, tenantKey, o.body, &buf)
		d := time.Since(t0)
		if err != nil && !isNoRoute(o, err) {
			t.rep.fail("ccserve", 1, err)
			continue
		}
		diff = append(diff, float64(d-t.inproc[i])/1e3)
		req += int64(len(o.path) + len(o.body))
		resp += int64(buf.Len())
	}
	t.m["ccserve.overhead_us"] = median(diff)
	t.m["ccserve.req_bytes"] = float64(req) / float64(len(t.in.ops))
	t.m["ccserve.resp_bytes"] = float64(resp) / float64(len(t.in.ops))

	loop := seconds(t.e.seconds) / 4
	rate0, _, err := t.readLoop(b, loop, false)
	if err != nil {
		return err
	}
	b.stopServer()
	b2, err := newBench(t.e, t.w, 1, 1)
	if err != nil {
		return err
	}
	defer b2.stopServer()
	if err := t.serve(b2, "-tracesample", "1", "-tracebuf", strconv.Itoa(4*traceFetch)); err != nil {
		return err
	}
	if t.w.uploads {
		// Serve the graph the first server ended on, so both rates read
		// the same matrix.
		if _, err := b2.srv.upload(graphJSON(t.in.graphs[len(t.in.graphs)-1])); err != nil {
			return err
		}
	}
	if err := b2.warmReads(); err != nil {
		return err
	}
	rate1, ops, err := t.readLoop(b2, loop, true)
	if err != nil {
		return err
	}
	t.m["trace.overhead_pct"] = 100 * (rate0/rate1 - 1)
	return t.serverSpans(b2.srv, ops)
}

// serve sets the workload's tenant up in a fresh ccserve.
func (t *traced) serve(b *bench, flags ...string) error {
	b.extra = flags
	if t.w.cold {
		return b.setupCold()
	}
	return b.setupHot()
}

// tracedOp is one op of the sample-1 read loop, with the request ID that
// ccserve adopts as its trace ID.
type tracedOp struct {
	id         string
	kind       opKind
	start, end time.Time
}

const traceFetch = 256 // traced ops whose server spans are fetched

// readLoop runs the read mix for d and returns ops per second; with keep it
// also returns the last traceFetch ops with their trace IDs.
func (t *traced) readLoop(b *bench, d time.Duration, keep bool) (float64, []tracedOp, error) {
	var buf bytes.Buffer
	var ops []tracedOp
	n := 0
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		o := t.in.ops[i%len(t.in.ops)]
		var id string
		if keep {
			id = newTraceID()
		}
		t0 := time.Now()
		err := b.srv.doWithID(o.method(), o.path, tenantKey, o.body, &buf, id)
		t1 := time.Now()
		if err != nil && !isNoRoute(o, err) {
			return 0, nil, err
		}
		n++
		if keep {
			ops = append(ops, tracedOp{id: id, kind: o.kind, start: t0, end: t1})
		}
	}
	rate := float64(n) / time.Since(start).Seconds()
	if len(ops) > traceFetch {
		ops = ops[len(ops)-traceFetch:]
	}
	return rate, ops, nil
}

func newTraceID() string {
	var b [16]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// serverSpan is one node of ccserve's /v1/traces/{id} span tree.
type serverSpan struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Children []*serverSpan `json:"children"`
}

// serverSpans fetches ccserve's span tree for each traced op and records it
// under a client-side root span, so the op's time splits into server spans
// and a gap (client, loopback and anything before the handler's span).
func (t *traced) serverSpans(s *server, ops []tracedOp) error {
	var gaps, shares []float64
	for _, o := range ops {
		var tr struct {
			Spans []*serverSpan `json:"spans"`
		}
		if err := s.doJSON(http.MethodGet, "/v1/traces/"+o.id, adminKey, nil, &tr); err != nil {
			return fmt.Errorf("trace %s: %w", o.id, err)
		}
		root := t.tr.add(-1, "http."+o.kind.String(), o.start, o.end)
		var covered time.Duration
		var walk func(parent int, sp *serverSpan)
		walk = func(parent int, sp *serverSpan) {
			id := t.tr.add(parent, sp.Name, sp.Start, sp.Start.Add(sp.Duration))
			for _, c := range sp.Children {
				walk(id, c)
			}
		}
		for _, sp := range tr.Spans {
			walk(root, sp)
			covered += sp.Duration
		}
		total := o.end.Sub(o.start)
		gap := total - covered
		gaps = append(gaps, float64(gap)/1e3)
		shares = append(shares, 100*float64(gap)/float64(total))
	}
	t.m["trace.http_gap_us"] = median(gaps)
	t.m["trace.http_gap_pct"] = median(shares)
	return nil
}

// summarizeSpans records each span name's total self time and the ops'
// coverage in the run's info line.
func (t *traced) summarizeSpans() {
	self := t.tr.selfTimes()
	byName := map[string]float64{}
	for i, s := range t.tr.spans {
		byName[s.Name] += ms(self[i])
	}
	t.rep.info["self_ms_by_span"] = byName
	t.rep.info["spans"] = len(t.tr.spans)
	t.rep.info["traced_ops"] = t.tr.ops
}

// writeSpans writes the run's spans as JSON to dir.
func (t *traced) writeSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", t.w.name, t.e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.tr.spans); err != nil {
		f.Close()
		return err
	}
	t.rep.info["spans_file"] = path
	return f.Close()
}
