package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/congestedclique/cliqueapsp/internal/sched"
	"github.com/congestedclique/cliqueapsp/obs"
	"github.com/congestedclique/cliqueapsp/oracle"
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

	// The per-request series, each resolved through With once and reused:
	// a With call joins its labels into a fresh key on every request.
	reqSeries    handles[reqKey, reqSeries]
	tenantSeries handles[[2]string, obs.Counter] // {tenant, outcome}
}

// reqKey names one request's series: its route template, method and status.
type reqKey struct {
	route, method string
	status        int
}

// reqSeries is one reqKey's request counter and latency histogram.
type reqSeries struct {
	requests obs.Counter
	latency  obs.Histogram
}

// request returns the series a finished request updates.
func (m *serverMetrics) request(route, method string, status int) reqSeries {
	return m.reqSeries.get(reqKey{route, method, status}, func(k reqKey) reqSeries {
		code := strconv.Itoa(k.status)
		return reqSeries{m.requests.With(k.route, k.method, code), m.latency.With(k.route, code)}
	})
}

// tenantRequest returns the per-tenant counter for one outcome.
func (m *serverMetrics) tenantRequest(tenant, outcome string) obs.Counter {
	return m.tenantSeries.get([2]string{tenant, outcome}, func(k [2]string) obs.Counter {
		return m.tenantReq.With(k[0], k[1])
	})
}

// handles memoizes metric handles by label key. The families never drop a
// series, so a handle stays valid for the process's life.
type handles[K comparable, H any] struct {
	mu sync.RWMutex
	m  map[K]H
}

// get returns k's handle, resolving it on first use.
func (h *handles[K, H]) get(k K, resolve func(K) H) H {
	h.mu.RLock()
	v, ok := h.m[k]
	h.mu.RUnlock()
	if ok {
		return v
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if v, ok = h.m[k]; !ok {
		if h.m == nil {
			h.m = make(map[K]H)
		}
		v = resolve(k)
		h.m[k] = v
	}
	return v
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
// refreshed once per scrape from one statsSample, the same reading /v1/stats
// serves. Its Manager.Stats() iterates tenants without touching LRU recency —
// same reason the stats routes resolve tenants via peek: scraping must never
// decide who gets evicted next.
func (s *server) registerCollectors(reg *obs.Registry) {
	version, revision := buildInfo()
	reg.Gauge("ccserve_build_info",
		"Build metadata; always 1, the value is in the labels.",
		"version", "revision").With(version, revision).Set(1)

	fams := (&statsSample{}).gauges()
	vecs := make([]*obs.GaugeVec, len(fams))
	for i, f := range fams {
		vecs[i] = reg.Gauge(f.name, f.help, "stat")
	}
	reg.OnScrape(func() {
		st := s.sampleStats()
		for i, f := range st.gauges() {
			for _, g := range f.stats {
				vecs[i].With(g.stat).Set(g.value)
			}
		}
	})
}

// statsSample is one reading of every sampled serving stat. It is the
// /v1/stats body, and the /metrics gauges are laid out from it by gauges.
type statsSample struct {
	UptimeNS     time.Duration       `json:"uptime_ns"`
	HTTPRequests uint64              `json:"http_requests"`
	HTTPErrors   uint64              `json:"http_errors"`
	GraphUploads uint64              `json:"graph_uploads"`
	Manager      oracle.ManagerStats `json:"manager"`
	Process      processStats        `json:"process"`
	Pool         sched.PoolStats     `json:"-"` // /metrics only
}

func (s *server) sampleStats() statsSample {
	up := time.Since(s.start)
	return statsSample{
		UptimeNS:     up,
		HTTPRequests: s.reqs.Load(),
		HTTPErrors:   s.errs.Load(),
		GraphUploads: s.graphs.Load(),
		Manager:      s.mgr.Stats(),
		Process:      readProcessStats(up),
		Pool:         sched.Shared().Stats(),
	}
}

// gaugeFamily is one stat-labeled /metrics gauge family with its series.
type gaugeFamily struct {
	name, help string
	stats      []statGauge
}

type statGauge struct {
	stat  string
	value float64
}

// gauges is the one table behind the stat-labeled /metrics families: each
// family's name and help, and each stat label with its value in st.
func (st *statsSample) gauges() []gaugeFamily {
	m, p := &st.Manager, &st.Process
	var resident, capacity int
	for _, ts := range m.Tenants {
		if rc := ts.Oracle.RowCache; rc != nil {
			resident += rc.Resident
			capacity += rc.Capacity
		}
	}
	return []gaugeFamily{
		{"ccserve_manager", "Manager occupancy, budgets, and lifetime totals, sampled at scrape.", []statGauge{
			{"graphs", float64(m.Graphs)},
			{"max_graphs", float64(m.MaxGraphs)},
			{"total_nodes", float64(m.TotalNodes)},
			{"max_total_nodes", float64(m.MaxTotalNodes)},
			{"created", float64(m.Created)},
			{"deleted", float64(m.Deleted)},
			{"evictions", float64(m.Evictions)},
			{"persists", float64(m.Persists)},
			{"persist_errors", float64(m.PersistErrors)},
			{"restored", float64(m.Restored)},
			{"restore_errors", float64(m.RestoreErrors)},
			{"cold_hits", float64(m.ColdHits)},
			{"rehydrate_errors", float64(m.RehydrateErrors)},
			{"throttled", float64(m.Throttled)},
			{"demotions", float64(m.Demotions)},
			{"promotions", float64(m.Promotions)},
			{"full_decodes", float64(m.FullDecodes)},
			{"cold_tenants", float64(m.ColdTenants)},
			{"cold_serves", float64(m.ColdServes)},
		}},
		{"ccserve_row_cache", "Disk-tier hot-row cache state summed over hosted cold tenants.", []statGauge{
			{"hits", float64(m.RowCacheHits)},
			{"misses", float64(m.RowCacheMisses)},
			{"evictions", float64(m.RowCacheEvictions)},
			{"resident_rows", float64(resident)},
			{"capacity_rows", float64(capacity)},
		}},
		{"ccserve_pool", "Shared compute pool: worker budget, in-flight kernel tasks, lifetime completions.", []statGauge{
			{"workers", float64(st.Pool.Workers)},
			{"in_flight", float64(st.Pool.InFlight)},
			{"tasks_completed", float64(st.Pool.Completed)},
		}},
		{"ccserve_builds", "Fleet build admission: configured concurrency, running/queued builds, admissions, queue wait.", []statGauge{
			{"concurrency", float64(m.BuildConcurrency)},
			{"running", float64(m.BuildsRunning)},
			{"queued", float64(m.BuildsQueued)},
			{"admitted", float64(m.BuildsAdmitted)},
			{"wait_seconds_total", float64(m.BuildWaitNS) / 1e9},
		}},
		{"ccserve_process", "Process runtime state: uptime, goroutines, heap, GC totals.", []statGauge{
			{"uptime_seconds", p.UptimeSeconds},
			{"goroutines", float64(p.Goroutines)},
			{"gomaxprocs", float64(p.GOMAXPROCS)},
			{"open_fds", float64(p.OpenFDs)},
			{"heap_inuse_bytes", float64(p.HeapInuseBytes)},
			{"gc_pause_seconds_total", float64(p.GCPauseTotalNS) / 1e9},
			{"http_requests", float64(st.HTTPRequests)},
			{"http_errors", float64(st.HTTPErrors)},
			{"graph_uploads", float64(st.GraphUploads)},
		}},
	}
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

func readProcessStats(uptime time.Duration) processStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processStats{
		UptimeSeconds:  uptime.Seconds(),
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
