package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/congestedclique/cliqueapsp/internal/sched"
	"github.com/congestedclique/cliqueapsp/obs"
)

// serverMetrics are the instruments ccserve updates on the request and
// build paths. Everything sampled from other structs (manager occupancy,
// tier caches, runtime stats) is bridged at scrape time instead — see
// registerCollectors.
type serverMetrics struct {
	requests  *obs.CounterVec   // ccserve_requests_total{route,method,status}
	latency   *obs.HistogramVec // ccserve_request_duration_seconds{route,status}
	tenantReq *obs.CounterVec   // ccserve_tenant_requests_total{tenant,outcome}
	phaseDur  *obs.HistogramVec // ccserve_build_phase_duration_seconds{phase}
	rebuilds  *obs.CounterVec   // ccserve_rebuilds_total{result}
	repairs   *obs.CounterVec   // ccserve_repairs_total{result}
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests: reg.Counter("ccserve_requests_total",
			"HTTP requests by route template, method, and response status.",
			"route", "method", "status"),
		latency: reg.Histogram("ccserve_request_duration_seconds",
			"HTTP request latency by route template and response status.",
			obs.DefBuckets, "route", "status"),
		tenantReq: reg.Counter("ccserve_tenant_requests_total",
			"Tenant-scoped requests by outcome (served, throttled, error).",
			"tenant", "outcome"),
		phaseDur: reg.Histogram("ccserve_build_phase_duration_seconds",
			"Wall time of each pipeline phase of tenant rebuilds.",
			obs.DefBuckets, "phase"),
		rebuilds: reg.Counter("ccserve_rebuilds_total",
			"Completed build attempts across all tenants by result.",
			"result"),
		repairs: reg.Counter("ccserve_repairs_total",
			"Incremental repair publishes (edge deltas folded into the previous snapshot without an engine run) across all tenants by result.",
			"result"),
	}
}

// registerCollectors bridges the values other structs own into gauges
// refreshed once per scrape. The manager sample comes from Manager.Stats(),
// which iterates tenants without touching LRU recency — same reason the
// stats routes resolve tenants via Peek: scraping must never decide who
// gets evicted next.
func (s *server) registerCollectors(reg *obs.Registry) {
	version, revision := buildInfo()
	reg.Gauge("ccserve_build_info",
		"Build metadata; always 1, the value is in the labels.",
		"version", "revision").With(version, revision).Set(1)

	mgr := reg.Gauge("ccserve_manager",
		"Manager occupancy, budgets, and lifetime totals, sampled at scrape.",
		"stat")
	rowCache := reg.Gauge("ccserve_row_cache",
		"Disk-tier hot-row cache state summed over hosted cold tenants.",
		"stat")
	proc := reg.Gauge("ccserve_process",
		"Process runtime state: uptime, goroutines, heap, GC totals.",
		"stat")
	pool := reg.Gauge("ccserve_pool",
		"Shared compute pool: worker budget, in-flight kernel tasks, lifetime completions.",
		"stat")
	builds := reg.Gauge("ccserve_builds",
		"Fleet build admission: configured concurrency, running/queued builds, admissions, queue wait.",
		"stat")
	reg.OnScrape(func() {
		st := s.mgr.Stats()
		for stat, v := range map[string]float64{
			"graphs":           float64(st.Graphs),
			"max_graphs":       float64(st.MaxGraphs),
			"total_nodes":      float64(st.TotalNodes),
			"max_total_nodes":  float64(st.MaxTotalNodes),
			"created":          float64(st.Created),
			"deleted":          float64(st.Deleted),
			"evictions":        float64(st.Evictions),
			"persists":         float64(st.Persists),
			"persist_errors":   float64(st.PersistErrors),
			"restored":         float64(st.Restored),
			"restore_errors":   float64(st.RestoreErrors),
			"cold_hits":        float64(st.ColdHits),
			"rehydrate_errors": float64(st.RehydrateErrors),
			"throttled":        float64(st.Throttled),
			"demotions":        float64(st.Demotions),
			"promotions":       float64(st.Promotions),
			"full_decodes":     float64(st.FullDecodes),
			"cold_tenants":     float64(st.ColdTenants),
			"cold_serves":      float64(st.ColdServes),
		} {
			mgr.With(stat).Set(v)
		}
		var resident, capacity int
		for _, ts := range st.Tenants {
			if rc := ts.Oracle.RowCache; rc != nil {
				resident += rc.Resident
				capacity += rc.Capacity
			}
		}
		for stat, v := range map[string]float64{
			"hits":          float64(st.RowCacheHits),
			"misses":        float64(st.RowCacheMisses),
			"evictions":     float64(st.RowCacheEvictions),
			"resident_rows": float64(resident),
			"capacity_rows": float64(capacity),
		} {
			rowCache.With(stat).Set(v)
		}
		pst := sched.Shared().Stats()
		for stat, v := range map[string]float64{
			"workers":         float64(pst.Workers),
			"in_flight":       float64(pst.InFlight),
			"tasks_completed": float64(pst.Completed),
		} {
			pool.With(stat).Set(v)
		}
		for stat, v := range map[string]float64{
			"concurrency":        float64(st.BuildConcurrency),
			"running":            float64(st.BuildsRunning),
			"queued":             float64(st.BuildsQueued),
			"admitted":           float64(st.BuildsAdmitted),
			"wait_seconds_total": float64(st.BuildWaitNS) / 1e9,
		} {
			builds.With(stat).Set(v)
		}
		ps := readProcessStats(s.start)
		for stat, v := range map[string]float64{
			"uptime_seconds":         ps.UptimeSeconds,
			"goroutines":             float64(ps.Goroutines),
			"gomaxprocs":             float64(ps.GOMAXPROCS),
			"open_fds":               float64(ps.OpenFDs),
			"heap_inuse_bytes":       float64(ps.HeapInuseBytes),
			"gc_pause_seconds_total": float64(ps.GCPauseTotalNS) / 1e9,
			"http_requests":          float64(s.reqs.Load()),
			"http_errors":            float64(s.errs.Load()),
			"graph_uploads":          float64(s.graphs.Load()),
		} {
			proc.With(stat).Set(v)
		}
	})
}

// processStats is the `process` section of /v1/stats: the runtime-level
// numbers an operator wants next to the serving counters.
type processStats struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	GoVersion      string  `json:"go_version"`
	Goroutines     int     `json:"goroutines"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	OpenFDs        int     `json:"open_fds"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	GCPauseTotalNS uint64  `json:"gc_pause_total_ns"`
	NumGC          uint32  `json:"num_gc"`
}

func readProcessStats(start time.Time) processStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processStats{
		UptimeSeconds:  time.Since(start).Seconds(),
		GoVersion:      runtime.Version(),
		Goroutines:     runtime.NumGoroutine(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		OpenFDs:        countOpenFDs(),
		HeapInuseBytes: ms.HeapInuse,
		GCPauseTotalNS: ms.PauseTotalNs,
		NumGC:          ms.NumGC,
	}
}

// countOpenFDs counts the process's open file descriptors via /proc —
// an operational signal here because every cold tenant's tier reader
// holds a snapshot file open. Best-effort: 0 on platforms without
// /proc/self/fd (the JSON field and gauge then read as absent-ish
// rather than erroring the whole stats surface).
func countOpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

// buildInfo resolves the module version and VCS revision baked into the
// binary. "devel"/"unknown" outside a module-aware, VCS-stamped build.
func buildInfo() (version, revision string) {
	version, revision = "devel", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, revision
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && kv.Value != "" {
			revision = kv.Value
		}
	}
	return version, revision
}

// routeTemplate collapses a request path onto its route template so metric
// label cardinality stays bounded by the route table, not by tenant names
// or probe garbage.
func routeTemplate(path string) string {
	switch path {
	case "/v1/stats", "/v1/graphs", "/v1/traces", "/healthz", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof/") {
		return "/debug/pprof/"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/traces/"); ok && rest != "" {
		return "/v1/traces/{id}"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/graphs/"); ok && rest != "" {
		_, op, hasOp := strings.Cut(rest, "/")
		if !hasOp || op == "" {
			return "/v1/graphs/{name}"
		}
		switch op {
		case "dist", "batch", "path", "graph", "edges", "promote", "stats":
			return "/v1/graphs/{name}/" + op
		}
	}
	return "other"
}

// requestOutcome classifies a response for the per-tenant counter.
// 401/403/404 report "" (uncounted): they are exactly the statuses an
// unauthenticated or mistyped tenant name produces, and labeling them
// would let anyone mint unbounded tenant label values.
func requestOutcome(status int) string {
	switch {
	case status == http.StatusUnauthorized, status == http.StatusForbidden,
		status == http.StatusNotFound:
		return ""
	case status == http.StatusTooManyRequests:
		return "throttled"
	case status >= 400 && status != statusClientClosedRequest:
		return "error"
	default:
		return "served"
	}
}

// statusWriter records the status and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming responses (pprof
// profiles) keep working through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

type ctxKey int

const requestIDKey ctxKey = iota

// requestID returns the caller's X-Request-Id if it is usable as a label
// and log token, or mints a fresh one. 16 hex chars of crypto/rand is
// plenty for correlating a request across response, log line, and client.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= 128 && printableASCII(id) {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// requestIDFrom recovers the request ID fail() stamps on its log lines.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// observePhases feeds the manager's per-phase build timings into the phase
// histogram; installed as ManagerConfig.OnPhase.
func (m *serverMetrics) observePhases(_ string, phase string, d time.Duration) {
	m.phaseDur.With(phase).Observe(d.Seconds())
}
