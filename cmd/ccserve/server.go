package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/obs"
	"github.com/congestedclique/cliqueapsp/obs/trace"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
	"github.com/congestedclique/cliqueapsp/tier"
)

// limits bounds what one request may ask of the server.
type limits struct {
	maxNodes int   // largest accepted graph (nodes)
	maxBatch int   // most pairs per batch call
	maxBody  int64 // request body cap in bytes
}

func defaultLimits() limits {
	return limits{maxNodes: 4096, maxBatch: 100000, maxBody: 32 << 20}
}

// serverConfig wires the HTTP surface: per-request limits plus the
// multi-tenant admission budgets and the base oracle configuration every
// tenant inherits.
type serverConfig struct {
	lim           limits
	maxGraphs     int           // most hosted graphs (0 = unlimited)
	maxTotalNodes int           // summed node budget across graphs (0 = unlimited)
	snapshots     *store.Dir    // nil = no persistence (-datadir unset)
	coldCacheRows int           // hot-row cache rows per cold tenant (0 = tiering off)
	buildPar      int           // concurrent tenant builds (-buildpar; 0 = NumCPU, < 0 = unlimited)
	kernelPar     int           // shared-pool workers per build's kernels and k-nearest fan-out (-kernelpar; 0 = whole pool)
	keys          *keyring      // nil = open server (-keys unset)
	slowQuery     time.Duration // log completed requests over this at warn (-slowquery; 0 = off)
	traceSample   float64       // fraction of requests traced end-to-end (-tracesample)
	traceBuf      int           // completed traces retained for /v1/traces (-tracebuf; ≤0 = default)
	base          oracle.Config
	log           *slog.Logger // nil = discard
}

// defaultTraceBuf is the -tracebuf default: enough recent traces to
// debug an incident, bounded enough to never matter for memory.
const defaultTraceBuf = 256

// Tenant names are validated with store.ValidTenantName, so the HTTP API,
// log lines, and the on-disk snapshot layout all accept the same alphabet.

// server is the HTTP surface over an oracle.Manager. It carries
// expvar-style request counters surfaced by /v1/stats alongside the
// manager's and every tenant's own, plus the obs registry behind /metrics.
type server struct {
	mgr   *oracle.Manager
	snaps *store.Dir // nil without -datadir
	auth  *keyring   // nil without -keys: every route open
	lim   limits
	mux   *http.ServeMux
	start time.Time
	log   *slog.Logger
	slow  time.Duration  // -slowquery threshold (0 = off)
	met   *serverMetrics // request/build instruments behind /metrics

	tracer *trace.Tracer // samples requests; builds are always traced
	traces *trace.Store  // bounded ring of completed traces (/v1/traces)

	reqs   atomic.Uint64 // total requests
	errs   atomic.Uint64 // responses with status >= 400
	graphs atomic.Uint64 // accepted graph uploads (all tenants)
}

func newServer(cfg serverConfig) (*server, error) {
	logger := cfg.log
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := obs.NewRegistry()
	s := &server{
		snaps: cfg.snapshots,
		auth:  cfg.keys,
		lim:   cfg.lim,
		mux:   http.NewServeMux(),
		start: time.Now(),
		log:   logger,
		slow:  cfg.slowQuery,
		met:   newServerMetrics(reg),
	}
	// The tracer exists even at -tracesample 0: forced captures (slow and
	// 5xx requests) and build traces still need somewhere to land.
	traceBuf := cfg.traceBuf
	if traceBuf <= 0 {
		traceBuf = defaultTraceBuf
	}
	s.traces = trace.NewStore(traceBuf)
	s.tracer = trace.NewTracer(cfg.traceSample, s.traces)
	cfg.base.Tracer = s.tracer
	// Kernel parallelism is an engine default, so every tenant build draws
	// at most -kernelpar workers from the process-wide pool; build admission
	// caps how many such builds run at once.
	buildConc := cfg.buildPar
	if buildConc == 0 {
		buildConc = runtime.NumCPU()
	} else if buildConc < 0 {
		buildConc = 0 // unlimited
	}
	if cfg.base.Engine == nil {
		cfg.base.Engine = cliqueapsp.New(cliqueapsp.WithParallelism(cfg.kernelPar))
	}
	mcfg := oracle.ManagerConfig{
		MaxGraphs:        cfg.maxGraphs,
		MaxTotalNodes:    cfg.maxTotalNodes,
		BuildConcurrency: buildConc,
		Base:             cfg.base,
		OnEvict: func(name string) {
			logger.Info("tenant evicted", "tenant", name, "reason", "lru")
		},
		OnRebuild: func(name string, version uint64, elapsed time.Duration, err error) {
			if err != nil {
				s.met.rebuilds.With("error").Inc()
				logger.Error("tenant rebuild failed", "tenant", name, "version", version, "dur", elapsed, "err", err)
				return
			}
			s.met.rebuilds.With("ok").Inc()
			logger.Info("tenant rebuild done", "tenant", name, "version", version, "dur", elapsed)
		},
		OnRepair: func(name string, version uint64, elapsed time.Duration) {
			s.met.repairs.With("ok").Inc()
			logger.Info("tenant repair done", "tenant", name, "version", version, "dur", elapsed)
		},
		OnPhase: s.met.observePhases,
	}
	if cfg.snapshots != nil {
		mcfg.Store = cfg.snapshots
		mcfg.OnPersist = func(name string, version uint64, err error) {
			if err != nil {
				logger.Error("snapshot persist failed", "tenant", name, "version", version, "err", err)
			}
		}
		if cfg.coldCacheRows > 0 {
			// Tiered serving: memory pressure demotes idle tenants to serving
			// snapshot rows straight off disk (bounded by the hot-row cache)
			// instead of dropping them, and a tight-budget restart brings the
			// fleet up cold with zero O(n²) decodes.
			mcfg.Cold = tier.NewStore(cfg.snapshots)
			mcfg.ColdCacheRows = cfg.coldCacheRows
		}
	}
	s.mgr = oracle.NewManager(mcfg)

	// Restore the persisted fleet before taking traffic: every tenant that
	// comes back from disk serves immediately, at zero rebuilds.
	if cfg.snapshots != nil {
		restored, failed, err := s.mgr.RestoreAll(func(tenant string, err error) {
			if err != nil {
				logger.Warn("tenant not restored", "tenant", tenant, "err", err)
				return
			}
			logger.Info("tenant restored", "tenant", tenant, "from", cfg.snapshots.Root())
		})
		if err != nil {
			s.mgr.Close()
			return nil, fmt.Errorf("restoring snapshots: %w", err)
		}
		logger.Info("snapshot restore complete", "restored", restored, "skipped", failed)
	}

	// With the fleet restored, the key file's quotas land on every hosted
	// tenant before the first request is served.
	s.applyFileQuotas()

	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("/v1/graphs/", s.handleTenant)
	// Observability surfaces. None of these paths are tenant-scoped in
	// tenantRoute, so with -keys set they are all admin-only automatically;
	// without -keys the server is as open as every other route.
	s.mux.HandleFunc("/v1/traces", s.handleTraces)
	s.mux.HandleFunc("/v1/traces/", s.handleTraceByID)
	s.mux.Handle("/metrics", reg.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.registerCollectors(reg)
	return s, nil
}

// ServeHTTP is the middleware shell around every route: request ID and
// trace context in, one counter/histogram update and one structured
// completion line out. Auth runs inside the shell so 401/403 land in the
// route metrics too.
//
// Tracing decision, in order: an incoming traceparent with the sampled
// flag, else head sampling at -tracesample. A sampled request gets a
// live root span carried through the request context (so every layer's
// child spans land in one tree) and the response echoes a traceparent.
// An UNSAMPLED request does none of that — zero extra allocations, the
// AllocsPerRun test in obs/trace pins the primitives — but if it ends
// slow (≥ -slowquery) or 5xx, a root-only trace is synthesized at
// completion so the incident is still retrievable from /v1/traces.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route := routeTemplate(r.URL.Path)
	id := requestID(r)
	ctx := withRequestID(r.Context(), id)
	sc, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
	var span *trace.Span
	if sc.Sampled || s.tracer.Sample() {
		tid := sc.TraceID
		if tid.IsZero() {
			// No propagated trace ID: reuse the X-Request-Id when it is
			// usable as one (32 lowercase hex), so the client's own
			// correlation token finds the trace; mint otherwise.
			tid, _ = trace.ParseTraceID(id)
		}
		span = s.tracer.StartRoot(r.Method+" "+route, tid, sc.SpanID)
		ctx = trace.ContextWith(ctx, span)
		w.Header().Set("traceparent", trace.FormatTraceparent(span.TraceID(), span.ID(), true))
	}
	r = r.WithContext(ctx)
	w.Header().Set("X-Request-Id", id)
	sw := &statusWriter{ResponseWriter: w}
	s.reqs.Add(1)
	if s.authorize(sw, r) {
		s.mux.ServeHTTP(sw, r)
	}
	if sw.status == 0 {
		sw.status = http.StatusOK // handler never wrote; net/http sends 200
	}
	dur := time.Since(start)
	status := strconv.Itoa(sw.status)
	s.met.requests.With(route, r.Method, status).Inc()
	s.met.latency.With(route, status).Observe(dur.Seconds())
	tenant, scoped := tenantRoute(r)
	if scoped {
		if outcome := requestOutcome(sw.status); outcome != "" {
			s.met.tenantReq.With(tenant, outcome).Inc()
		}
	}
	slow := s.slow > 0 && dur >= s.slow
	var traceID string
	if span != nil {
		span.SetStatus(sw.status)
		span.SetAttr("request_id", id)
		if scoped {
			span.SetAttr("tenant", tenant)
		}
		span.End()
		traceID = span.TraceID().String()
	} else if slow || sw.status >= 500 {
		// Forced capture: the request was not sampled (so no span tree
		// exists — that is what kept it allocation-free), but slow and
		// failing requests must be retrievable. Synthesize the root now;
		// only these rare requests pay for it.
		attrs := []trace.Attr{trace.String("sampling", "forced"), trace.String("request_id", id)}
		if scoped {
			attrs = append(attrs, trace.String("tenant", tenant))
		}
		tid, _ := trace.ParseTraceID(id)
		if tid = s.tracer.CaptureRoot(tid, r.Method+" "+route, start, dur, sw.status, attrs...); !tid.IsZero() {
			traceID = tid.String()
		}
	}
	level := slog.LevelInfo
	msg := "request"
	switch {
	case slow:
		level, msg = slog.LevelWarn, "slow request"
	case route == "/healthz" || route == "/metrics":
		// Probe and scrape traffic: one line per poll would drown the log.
		level = slog.LevelDebug
	}
	args := []any{"route", route, "method", r.Method, "status", sw.status,
		"bytes", sw.bytes, "dur", dur, "id", id}
	if traceID != "" {
		args = append(args, "trace", traceID)
	}
	if scoped {
		args = append(args, "tenant", tenant)
	}
	s.log.Log(r.Context(), level, msg, args...)
}

// Close drains every tenant's build loop.
func (s *server) Close() { s.mgr.Close() }

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	if status >= 400 {
		s.errs.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

type errorBody struct {
	Error string `json:"error"`
}

// statusClientClosedRequest is nginx's non-standard 499: the client closed
// the connection (or its context deadline fired) before the response was
// ready. Nobody usually reads the body — the point is the access log and
// keeping the server error counter honest.
const statusClientClosedRequest = 499

// clientGone writes a 499 WITHOUT counting it as a server error: writeJSON
// would bump errs for any status ≥ 400, and a canceled wait is the
// client's doing, not the server's. The X-Request-Id header is re-stamped
// before the handler unwinds — a canceled wait races response teardown,
// and without the stamp the 499 is the one response class that could
// reach the client uncorrelatable — and the cancellation is logged with
// both correlation tokens.
func (s *server) clientGone(w http.ResponseWriter, r *http.Request, err error) {
	id := requestIDFrom(r.Context())
	if id != "" {
		w.Header().Set("X-Request-Id", id)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusClientClosedRequest)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(errorBody{Error: err.Error()})
	s.log.Log(r.Context(), slog.LevelInfo, "client gone",
		"status", statusClientClosedRequest, "method", r.Method, "path", r.URL.Path,
		"id", id, "trace", traceIDFrom(r.Context()), "err", err)
}

// fail maps an error to a status: oracle-not-ready serves 503 (retryable),
// unknown tenants 404, admission rejections 429, bodies over -maxbody 413,
// quota rejections 429 with a Retry-After header, everything else defaults
// to the given status. Every failure body is also logged server-side with
// the request ID — 5xx at error level (a store or tier fault mapped to 500
// must be traceable without asking the client for its response body), 4xx
// at debug.
func (s *server) fail(w http.ResponseWriter, r *http.Request, status int, err error) {
	var maxBytes *http.MaxBytesError
	var quota *oracle.QuotaError
	switch {
	case errors.Is(err, oracle.ErrNotReady) || errors.Is(err, oracle.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, oracle.ErrTenantNotFound):
		status = http.StatusNotFound
	case errors.Is(err, oracle.ErrTenantExists):
		status = http.StatusConflict
	case errors.Is(err, oracle.ErrNoGraph):
		// A delta with nothing to patch: the tenant exists but has no base
		// graph — a conflict with the resource's state, not a bad request.
		status = http.StatusConflict
	case errors.Is(err, oracle.ErrSuperseded):
		// The serving snapshot moved while the operation (promote, restore)
		// was preparing; the mover's state won.
		status = http.StatusConflict
	case errors.As(err, &quota):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(quota.RetryAfter)))
	case errors.Is(err, oracle.ErrOverCapacity):
		status = http.StatusTooManyRequests
	case errors.Is(err, oracle.ErrColdRead):
		// A disk-tier read failed mid-query: server-side fault, retryable —
		// the tenant keeps serving and nothing is cached poisoned. Without
		// this mapping the query handlers would misreport it as a 400.
		status = http.StatusInternalServerError
	case errors.As(err, &maxBytes):
		// MaxBytesReader trips mid-decode, so without this mapping a body
		// over -maxbody would misreport as a 400 "bad request".
		status = http.StatusRequestEntityTooLarge
	}
	level, msg := slog.LevelDebug, "request rejected"
	if status >= 500 {
		level, msg = slog.LevelError, "request failed"
	}
	s.log.Log(r.Context(), level, msg,
		"status", status, "method", r.Method, "path", r.URL.Path,
		"id", requestIDFrom(r.Context()), "trace", traceIDFrom(r.Context()), "err", err)
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

// retryAfterSeconds renders a quota retry delay as Retry-After seconds:
// rounded up, and at least 1 so a client honoring the header never retries
// in a busy-loop.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *server) requireMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, method := range methods {
		if r.Method == method {
			return true
		}
	}
	allow := strings.Join(methods, ", ")
	w.Header().Set("Allow", allow)
	s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: fmt.Sprintf("use %s %s", allow, r.URL.Path)})
	return false
}

// queryPair parses the u/v query parameters.
func queryPair(r *http.Request) (int, int, error) {
	u, err := strconv.Atoi(r.URL.Query().Get("u"))
	if err != nil {
		return 0, 0, fmt.Errorf("query parameter u: want an integer node index")
	}
	v, err := strconv.Atoi(r.URL.Query().Get("v"))
	if err != nil {
		return 0, 0, fmt.Errorf("query parameter v: want an integer node index")
	}
	return u, v, nil
}

// decodeStrict decodes exactly one JSON value from r into v and requires
// EOF after it: `{"pairs":[…]}{"oops":1}` is a malformed request, not a
// request whose tail may be silently dropped.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	return expectEOF(dec)
}

// expectEOF errors unless dec's input is exhausted (whitespace aside).
func expectEOF(dec *json.Decoder) error {
	_, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err == nil:
		return fmt.Errorf("trailing data after the JSON value")
	default:
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			return fmt.Errorf("trailing data after the JSON value: %v", err)
		}
		// A genuine read failure (e.g. the -maxbody cap tripping) outranks
		// the trailing-data complaint — it must keep its own status mapping.
		return err
	}
}

// ---- per-tenant handlers (/v1/graphs/{name}/*) ----

// GET …/dist?u=0&v=3
func (s *server) dist(w http.ResponseWriter, r *http.Request, t *oracle.Tenant) {
	u, v, err := queryPair(r)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	res, err := t.DistCtx(r.Context(), u, v)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// jsonPair accepts both {"u":0,"v":1} and [0,1].
type jsonPair oracle.Pair

func (p *jsonPair) UnmarshalJSON(b []byte) error {
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, "[") {
		var arr []int
		if err := json.Unmarshal(b, &arr); err != nil {
			return err
		}
		if len(arr) != 2 {
			return fmt.Errorf("pair %s: want [u, v]", trimmed)
		}
		p.U, p.V = arr[0], arr[1]
		return nil
	}
	var obj struct {
		U *int `json:"u"`
		V *int `json:"v"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		return err
	}
	if obj.U == nil || obj.V == nil {
		return fmt.Errorf("pair %s: want both u and v", trimmed)
	}
	p.U, p.V = *obj.U, *obj.V
	return nil
}

// POST …/batch with {"pairs":[[0,1],{"u":2,"v":3},…]}
func (s *server) batch(w http.ResponseWriter, r *http.Request, t *oracle.Tenant) {
	var req struct {
		Pairs []jsonPair `json:"pairs"`
	}
	body := http.MaxBytesReader(w, r.Body, s.lim.maxBody)
	if err := decodeStrict(body, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("batch body: %w", err))
		return
	}
	if len(req.Pairs) == 0 {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("batch body: no pairs"))
		return
	}
	if len(req.Pairs) > s.lim.maxBatch {
		s.fail(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d pairs exceeds the limit of %d", len(req.Pairs), s.lim.maxBatch))
		return
	}
	pairs := make([]oracle.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = oracle.Pair(p)
	}
	res, err := t.BatchCtx(r.Context(), pairs)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// GET …/path?u=0&v=3
func (s *server) path(w http.ResponseWriter, r *http.Request, t *oracle.Tenant) {
	u, v, err := queryPair(r)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	res, err := t.PathCtx(r.Context(), u, v)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// jsonEdge accepts both {"u":0,"v":1,"w":3} and [0,1,3] (weight defaults
// to 1 when omitted).
type jsonEdge struct {
	U, V int
	W    int64
}

func (e *jsonEdge) UnmarshalJSON(b []byte) error {
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, "[") {
		var arr []int64
		if err := json.Unmarshal(b, &arr); err != nil {
			return err
		}
		if len(arr) != 2 && len(arr) != 3 {
			return fmt.Errorf("edge %s: want [u, v] or [u, v, w]", trimmed)
		}
		e.U, e.V, e.W = int(arr[0]), int(arr[1]), 1
		if len(arr) == 3 {
			e.W = arr[2]
		}
		return nil
	}
	var obj struct {
		U *int   `json:"u"`
		V *int   `json:"v"`
		W *int64 `json:"w"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		return err
	}
	if obj.U == nil || obj.V == nil {
		return fmt.Errorf("edge %s: want u and v", trimmed)
	}
	e.U, e.V, e.W = *obj.U, *obj.V, 1
	if obj.W != nil {
		e.W = *obj.W
	}
	return nil
}

// readGraph decodes a request body as a graph: JSON
// ({"n":4,"edges":[[0,1,3],…]}) or the package's plain edge-list format
// (as written by ccgen), bounded by maxNodes.
func (s *server) readGraph(w http.ResponseWriter, r *http.Request, maxNodes int) (*cliqueapsp.Graph, bool) {
	body := http.MaxBytesReader(w, r.Body, s.lim.maxBody)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req struct {
			N     int        `json:"n"`
			Edges []jsonEdge `json:"edges"`
		}
		if err := decodeStrict(body, &req); err != nil {
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("graph body: %w", err))
			return nil, false
		}
		if req.N < 1 {
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("graph body: n must be ≥ 1"))
			return nil, false
		}
		if req.N > maxNodes {
			s.fail(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("graph of %d nodes exceeds the limit of %d", req.N, maxNodes))
			return nil, false
		}
		g := cliqueapsp.NewGraph(req.N)
		// Validate strictly and report the offending edge index: the library
		// tolerates parallel edges (Normalize merges them), but accepting an
		// ambiguous weight for the same pair in a serving upload is almost
		// always a client bug — reject it as one, not as a build failure.
		seen := make(map[[2]int]int, len(req.Edges))
		for i, e := range req.Edges {
			if err := g.AddEdge(e.U, e.V, e.W); err != nil {
				s.fail(w, r, http.StatusBadRequest, fmt.Errorf("edge %d: %w", i, err))
				return nil, false
			}
			k := [2]int{e.U, e.V}
			if k[0] > k[1] {
				k[0], k[1] = k[1], k[0]
			}
			if j, dup := seen[k]; dup {
				s.fail(w, r, http.StatusBadRequest,
					fmt.Errorf("edge %d: duplicate of edge %d ({%d,%d})", i, j, k[0], k[1]))
				return nil, false
			}
			seen[k] = i
		}
		return g, true
	}
	g, err := cliqueapsp.ReadGraph(body)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("graph body (edge-list): %w", err))
		return nil, false
	}
	if g.N() > maxNodes {
		s.fail(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph of %d nodes exceeds the limit of %d", g.N(), maxNodes))
		return nil, false
	}
	// Same strictness as the JSON branch: an ambiguous repeated pair is a
	// client bug (the parser has no edge indices, so report the pair).
	if u, v, dup := duplicateEdge(g); dup {
		s.fail(w, r, http.StatusBadRequest,
			fmt.Errorf("graph body (edge-list): duplicate edge {%d,%d}", u, v))
		return nil, false
	}
	return g, true
}

// duplicateEdge reports the first node pair that appears more than once in
// g's edge list.
func duplicateEdge(g *cliqueapsp.Graph) (int, int, bool) {
	seen := make(map[[2]int]bool, g.NumEdges())
	for _, e := range g.Edges() {
		k := [2]int{e.U, e.V}
		if seen[k] {
			return e.U, e.V, true
		}
		seen[k] = true
	}
	return 0, 0, false
}

// POST …/graph registers a new graph for a tenant and schedules a rebuild.
// With ?wait=1 the response is delayed until the rebuild finishes (bounded
// by the request context), so the reported version is immediately queryable.
func (s *server) uploadGraph(w http.ResponseWriter, r *http.Request, t *oracle.Tenant) {
	// The global -maxn, tightened by the tenant's own max_nodes (which
	// SetGraph enforces too): checked here so an oversized upload is a 413.
	maxNodes := s.lim.maxNodes
	if own := t.MaxNodes(); own > 0 {
		maxNodes = min(maxNodes, own)
	}
	g, ok := s.readGraph(w, r, maxNodes)
	if !ok {
		return
	}
	version, err := t.SetGraph(g)
	if err != nil {
		s.fail(w, r, http.StatusServiceUnavailable, err)
		return
	}
	s.graphs.Add(1)
	s.log.Info("graph accepted", "tenant", t.Name(), "n", g.N(), "m", g.NumEdges(),
		"version", version, "id", requestIDFrom(r.Context()))

	status := http.StatusAccepted
	if r.URL.Query().Get("wait") != "" {
		if err := t.Wait(r.Context(), version); err != nil {
			// Classify by the REQUEST's context, not the error value: a
			// -buildtimeout abort surfaces as context.DeadlineExceeded too,
			// and that one is a genuine build failure the client must see
			// as a 5xx, not be told its own patience ran out.
			if r.Context().Err() != nil {
				// The CLIENT gave up waiting, not the server failing: the
				// build still completes (and persists) in the background.
				// Report it nginx-style as 499 client-closed-request, outside
				// the server error counter — a 500 here would both lie to
				// monitoring and inflate http_errors with client impatience.
				s.clientGone(w, r, fmt.Errorf("client stopped waiting for rebuild v%d: %w (the build continues)", version, err))
				return
			}
			s.fail(w, r, http.StatusInternalServerError, fmt.Errorf("rebuild v%d: %w", version, err))
			return
		}
		status = http.StatusOK
	}
	s.writeJSON(w, status, struct {
		Version uint64 `json:"version"`
		N       int    `json:"n"`
		M       int    `json:"m"`
		Ready   bool   `json:"ready"`
	}{Version: version, N: g.N(), M: g.NumEdges(), Ready: status == http.StatusOK})
}

// PATCH …/edges applies a batch of edge deltas ({"edges":[{"op":"add","u":0,
// "v":3,"w":2},{"op":"remove","u":1,"v":2},{"op":"reweight","u":4,"v":5,
// "w":9}]}) to the tenant's newest graph and schedules the successor
// snapshot. Small deltas against a hot snapshot publish through the
// incremental repair path (bounded Dijkstra from the touched endpoints);
// large dirty sets, cold bases, and approximate matrices facing an increase
// fall back to a coalesced full rebuild — either way the response version is
// what the publish will serve under. With ?wait=1 the response is delayed
// until that version serves, like a graph upload's.
func (s *server) patchEdges(w http.ResponseWriter, r *http.Request, t *oracle.Tenant) {
	var req struct {
		Edges []cliqueapsp.EdgeDelta `json:"edges"`
	}
	body := http.MaxBytesReader(w, r.Body, s.lim.maxBody)
	if err := decodeStrict(body, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("delta body: %w", err))
		return
	}
	if len(req.Edges) == 0 {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("delta body: no edges"))
		return
	}
	version, err := t.ApplyDeltaCtx(r.Context(), cliqueapsp.GraphDelta{Edges: req.Edges})
	if err != nil {
		// fail() maps ErrNoGraph to 409 and quota rejections to 429; an
		// invalid delta (bad endpoint, self loop, adding an existing edge,
		// removing a missing one) is the 400 default, naming its index.
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	s.log.Info("delta accepted", "tenant", t.Name(), "edges", len(req.Edges),
		"version", version, "id", requestIDFrom(r.Context()))

	status := http.StatusAccepted
	if r.URL.Query().Get("wait") != "" {
		if err := t.Wait(r.Context(), version); err != nil {
			if r.Context().Err() != nil {
				// See uploadGraph: client impatience is a 499, not a 500 —
				// the publish still completes in the background.
				s.clientGone(w, r, fmt.Errorf("client stopped waiting for v%d: %w (the publish continues)", version, err))
				return
			}
			s.fail(w, r, http.StatusInternalServerError, fmt.Errorf("publish v%d: %w", version, err))
			return
		}
		status = http.StatusOK
	}
	s.writeJSON(w, status, struct {
		Version uint64 `json:"version"`
		Edges   int    `json:"edges"`
		Ready   bool   `json:"ready"`
	}{Version: version, Edges: len(req.Edges), Ready: status == http.StatusOK})
}

// POST /v1/graphs/{name}/promote decodes the newest persisted snapshot of a
// cold-serving tenant and swaps it back in hot (admin-only with -keys: the
// promotion charges the full matrix against the fleet's memory budget, which
// may demote or evict other tenants). A tenant already serving hot is a
// no-op 200, so the route is safely idempotent.
func (s *server) promoteTenant(w http.ResponseWriter, r *http.Request, t *oracle.Tenant) {
	if err := s.mgr.Promote(t.Name()); err != nil {
		// fail() maps ErrSuperseded to 409 (the serving snapshot moved while
		// the decode ran) and ErrOverCapacity to 429; a load failure is the
		// 500 default.
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	ts := t.Stats()
	s.log.Info("tenant promoted", "tenant", t.Name(), "tier", ts.Tier,
		"id", requestIDFrom(r.Context()))
	s.writeJSON(w, http.StatusOK, summarize(ts))
}

// GET /v1/stats — HTTP counters, the manager aggregate with per-tenant
// breakdown, and the process section.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	s.writeJSON(w, http.StatusOK, s.sampleStats())
}

// GET /healthz — always 200 while the process serves: the hosted graph
// count plus build metadata.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	build, revision := buildInfo()
	s.writeJSON(w, http.StatusOK, struct {
		Graphs   int    `json:"graphs"`
		Build    string `json:"build"`
		Revision string `json:"revision"`
	}{Graphs: len(s.mgr.Names()), Build: build, Revision: revision})
}

// ---- multi-tenant routes ----

// tenantSummary is one row of the /v1/graphs listing. Evicted marks a
// tenant that is not currently hosted but has persisted snapshots — the
// next query on it rehydrates it from disk. Tier reports where the rows
// live: "hot" (resident matrix), "cold" (disk behind the hot-row cache —
// both for hosted demoted tenants and for evicted-but-persisted ones,
// whose next query serves from disk either way).
type tenantSummary struct {
	Name      string `json:"name"`
	Pinned    bool   `json:"pinned"`
	Ready     bool   `json:"ready"`
	Evicted   bool   `json:"evicted,omitempty"`
	Tier      string `json:"tier,omitempty"`
	Version   uint64 `json:"version"`
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	M         int    `json:"m"`
}

func summarize(ts oracle.TenantStats) tenantSummary {
	return tenantSummary{
		Name:      ts.Name,
		Pinned:    ts.Pinned,
		Ready:     ts.Oracle.Version > 0,
		Tier:      ts.Tier,
		Version:   ts.Oracle.Version,
		Algorithm: ts.Oracle.Algorithm,
		N:         ts.Oracle.GraphN,
		M:         ts.Oracle.GraphM,
	}
}

// handleGraphs serves the collection: GET /v1/graphs lists tenants,
// POST /v1/graphs creates one.
func (s *server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		st := s.mgr.Stats()
		out := struct {
			Count  int             `json:"count"`
			Graphs []tenantSummary `json:"graphs"`
		}{Graphs: make([]tenantSummary, len(st.Tenants))}
		hosted := make(map[string]bool, len(st.Tenants))
		for i, ts := range st.Tenants {
			out.Graphs[i] = summarize(ts)
			hosted[ts.Name] = true
		}
		// Evicted-but-persisted tenants still exist (the next query on one
		// rehydrates it) and must show up here, consistent with the
		// single-name summary route — a listing that omits them steers
		// clients into destructive re-creates.
		if s.snaps != nil {
			// Probe failures are 500s, matching the single-name route: a
			// listing that silently omits a persisted tenant on a transient
			// read error invites the same destructive re-create.
			names, err := s.snaps.Tenants()
			if err != nil {
				s.fail(w, r, http.StatusInternalServerError, fmt.Errorf("listing persisted tenants: %w", err))
				return
			}
			for _, name := range names {
				if hosted[name] {
					continue
				}
				onDisk, perr := s.snapshotOnDisk(name)
				if perr != nil {
					s.fail(w, r, http.StatusInternalServerError, fmt.Errorf("probing persisted snapshots of %q: %w", name, perr))
					return
				}
				if onDisk {
					out.Graphs = append(out.Graphs, tenantSummary{Name: name, Evicted: true, Tier: "cold"})
				}
			}
			sort.Slice(out.Graphs, func(i, j int) bool { return out.Graphs[i].Name < out.Graphs[j].Name })
		}
		out.Count = len(out.Graphs)
		s.writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		s.createTenant(w, r)
	default:
		s.requireMethod(w, r, http.MethodGet, http.MethodPost)
	}
}

// POST /v1/graphs with {"name":"sf-roads","algorithm":"tradeoff","eps":0.2,
// "seed":7,"max_nodes":512,"key":"…","quota":{"requests_per_sec":50}}.
// Algorithm, eps and seed override the server's -alg/-eps/-seed defaults
// for this tenant only; max_nodes tightens -maxn; key registers a
// per-tenant API key (requires -keys, admin-only like every create); quota
// throttles the tenant from its first query (defaulting to the key file's
// quota for this name, if any).
func (s *server) createTenant(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name      string        `json:"name"`
		Algorithm string        `json:"algorithm"`
		Eps       float64       `json:"eps"`
		Seed      int64         `json:"seed"`
		MaxNodes  int           `json:"max_nodes"`
		Key       string        `json:"key"`
		Quota     *oracle.Quota `json:"quota"`
	}
	body := http.MaxBytesReader(w, r.Body, s.lim.maxBody)
	if err := decodeStrict(body, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("create body: %w", err))
		return
	}
	if !store.ValidTenantName(req.Name) {
		s.fail(w, r, http.StatusBadRequest,
			fmt.Errorf("tenant name %q: want 1-64 of [a-zA-Z0-9._-], starting alphanumeric", req.Name))
		return
	}
	if req.Algorithm != "" && !algorithmRegistered(req.Algorithm) {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("unknown algorithm %q (see GET /v1/graphs or ccapsp -list)", req.Algorithm))
		return
	}
	if req.MaxNodes < 0 || req.Eps < 0 {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("max_nodes and eps must be nonnegative"))
		return
	}
	if req.Key != "" {
		if s.auth == nil {
			// Accepting and silently ignoring a key would leave the caller
			// believing the tenant is protected when every route is open.
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("key set but the server runs without -keys: authentication is disabled"))
			return
		}
		// A key that already resolves to someone else would never identify
		// this tenant (the existing owner wins the lookup) — reject it
		// rather than hand out a credential that silently does not work.
		if id, ok := s.auth.identify(req.Key); ok && (id.admin || id.tenant != req.Name) {
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("key already in use by another identity"))
			return
		}
	}
	var quota oracle.Quota
	if req.Quota != nil {
		if err := req.Quota.Validate(); err != nil {
			s.fail(w, r, http.StatusBadRequest, err)
			return
		}
		quota = *req.Quota
	} else if s.auth != nil {
		if q, ok := s.auth.quotaFor(req.Name); ok {
			quota = q
		}
	}
	t, err := s.mgr.Create(req.Name, oracle.TenantConfig{
		Algorithm: cliqueapsp.Algorithm(req.Algorithm),
		Eps:       req.Eps,
		Seed:      req.Seed,
		Quota:     quota,
		MaxNodes:  req.MaxNodes,
	})
	if err != nil {
		// fail() maps the client-caused sentinels (exists → 409, over
		// capacity → 429, closed → 503); what remains — e.g. a failed wipe
		// of a previous incarnation's files — is a server-side fault.
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	if req.Key != "" {
		s.auth.setAPIKey(req.Name, req.Key)
	}
	s.log.Info("tenant created", "tenant", req.Name, "algorithm", req.Algorithm,
		"id", requestIDFrom(r.Context()))
	s.writeJSON(w, http.StatusCreated, summarize(t.Stats()))
}

func algorithmRegistered(name string) bool {
	for _, a := range cliqueapsp.Algorithms() {
		if string(a) == name {
			return true
		}
	}
	return false
}

// snapshotOnDisk reports whether name has persisted snapshots to
// rehydrate from. The error is the probe's own failure — callers must not
// treat "could not tell" as "absent": that is the difference between
// reporting a tenant evicted and steering a client into a destructive
// re-create.
func (s *server) snapshotOnDisk(name string) (bool, error) {
	if s.snaps == nil {
		return false, nil
	}
	vs, err := s.snaps.Versions(name)
	if err != nil {
		return false, err
	}
	return len(vs) > 0, nil
}

// handleTenant routes /v1/graphs/{name} and /v1/graphs/{name}/{op}.
func (s *server) handleTenant(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	name, op, hasOp := strings.Cut(rest, "/")
	if !store.ValidTenantName(name) || (hasOp && strings.Contains(op, "/")) {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no route %s", r.URL.Path)})
		return
	}

	if !hasOp || op == "" {
		switch r.Method {
		case http.MethodGet:
			if t, ok := s.peek(w, r, name); ok {
				s.writeJSON(w, http.StatusOK, summarize(t.Stats()))
			}
		case http.MethodDelete:
			s.deleteTenant(w, r, name)
		default:
			s.requireMethod(w, r, http.MethodGet, http.MethodDelete)
		}
		return
	}

	var method string
	var serve func(http.ResponseWriter, *http.Request, *oracle.Tenant)
	switch op {
	case "dist":
		method, serve = http.MethodGet, s.dist
	case "path":
		method, serve = http.MethodGet, s.path
	case "batch":
		method, serve = http.MethodPost, s.batch
	case "graph":
		method, serve = http.MethodPost, s.uploadGraph
	case "edges":
		method, serve = http.MethodPatch, s.patchEdges
	case "promote":
		method, serve = http.MethodPost, s.promoteTenant
	case "stats":
		method = http.MethodGet // the tenant's full counters, resolved by peek
	default:
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no route %s", r.URL.Path)})
		return
	}
	if !s.requireMethod(w, r, method) {
		return
	}
	if op == "stats" {
		if t, ok := s.peek(w, r, name); ok {
			s.writeJSON(w, http.StatusOK, t.Stats())
		}
		return
	}
	t, err := s.mgr.Get(name)
	if err != nil {
		// fail() maps a genuinely absent tenant to 404; anything else — a
		// corrupt snapshot or I/O failure during rehydration — is a server
		// fault the client must not mistake for "no such tenant".
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	serve(w, r, t)
}

// peek resolves name for the single-name monitoring routes (GET
// /v1/graphs/{name} and its /stats). Peek, not Get: a monitoring scrape must
// not refresh LRU recency, or eviction would track poll phase instead of
// query traffic. A name Peek cannot see may be evicted but persisted; it
// still exists (the next query rehydrates it) and answers its evicted
// summary. When the disk probe fails the answer is 500, never 404: a 404
// could steer the client into a re-create that replaces the persisted
// incarnation. ok is false once the response is written.
func (s *server) peek(w http.ResponseWriter, r *http.Request, name string) (t *oracle.Tenant, ok bool) {
	t, err := s.mgr.Peek(name)
	if err == nil {
		return t, true
	}
	switch onDisk, perr := s.snapshotOnDisk(name); {
	case perr != nil:
		s.fail(w, r, http.StatusInternalServerError, fmt.Errorf("probing persisted snapshots of %q: %w", name, perr))
	case onDisk:
		s.writeJSON(w, http.StatusOK, tenantSummary{Name: name, Evicted: true, Tier: "cold"})
	default:
		s.fail(w, r, http.StatusInternalServerError, err) // fail() maps ErrTenantNotFound to 404
	}
	return nil, false
}

// DELETE /v1/graphs/{name}
func (s *server) deleteTenant(w http.ResponseWriter, r *http.Request, name string) {
	err := s.mgr.Delete(name)
	if s.auth != nil && (err == nil || errors.Is(err, oracle.ErrTenantNotFound)) {
		// The runtime-registered key dies with the tenant (file keys are the
		// operator's to remove), including the already-gone 404 case; a
		// failed store erase keeps it, since the name can still rehydrate.
		s.auth.dropAPIKey(name)
	}
	if err != nil {
		// fail() maps ErrTenantNotFound to 404; anything else here means the
		// tenant's persisted snapshots could not be erased — that is a
		// server-side failure the client must see as one, not as "gone".
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	s.log.Info("tenant deleted", "tenant", name)
	s.writeJSON(w, http.StatusOK, struct {
		Deleted string `json:"deleted"`
	}{Deleted: name})
}
