package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/congestedclique/cliqueapsp/oracle"
)

// scrape fetches /metrics (with an optional Bearer key) and returns the
// exposition text after asserting status and content type.
func scrape(t *testing.T, base, key string) string {
	t.Helper()
	resp := doAuth(t, http.MethodGet, base+"/metrics", key, "", "")
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	return string(raw)
}

// metricValue extracts the sample value of the exactly-matching series line.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no series %q in exposition:\n%s", series, text)
	return 0
}

// TestMetricsExposition drives real traffic through the server and checks
// the scrape reflects it: route×status counters and histograms, per-tenant
// outcome counters, manager/row-cache/process gauges, and build metadata.
func TestMetricsExposition(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))

	g := newTenant(t, base, "", "g")
	postJSON(t, g+"/graph?wait=1", "application/json",
		`{"n":3,"edges":[[0,1,2],[1,2,3]]}`, http.StatusOK, nil)
	getJSON(t, g+"/dist?u=0&v=2", http.StatusOK, nil)
	getJSON(t, g+"/dist?u=0&v=2", http.StatusOK, nil)
	getJSON(t, g+"/dist?u=99&v=0", http.StatusBadRequest, nil) // out of range

	text := scrape(t, base, "")
	for _, want := range []string{
		"# TYPE ccserve_requests_total counter",
		"# TYPE ccserve_request_duration_seconds histogram",
		"# TYPE ccserve_tenant_requests_total counter",
		"# TYPE ccserve_manager gauge",
		"# TYPE ccserve_row_cache gauge",
		"# TYPE ccserve_process gauge",
		"# TYPE ccserve_build_info gauge",
		"# TYPE ccserve_rebuilds_total counter",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}

	if v := metricValue(t, text,
		`ccserve_requests_total{route="/v1/graphs/{name}/dist",method="GET",status="200"}`); v != 2 {
		t.Errorf("dist 200 count = %v, want 2", v)
	}
	if v := metricValue(t, text,
		`ccserve_requests_total{route="/v1/graphs/{name}/dist",method="GET",status="400"}`); v != 1 {
		t.Errorf("dist 400 count = %v, want 1", v)
	}
	if v := metricValue(t, text,
		`ccserve_request_duration_seconds_bucket{route="/v1/graphs/{name}/dist",status="200",le="+Inf"}`); v != 2 {
		t.Errorf("dist latency +Inf bucket = %v, want 2", v)
	}
	// Tenant routes count per tenant: the 200s as served, the 400 as error.
	if v := metricValue(t, text,
		`ccserve_tenant_requests_total{tenant="g",outcome="served"}`); v < 3 {
		t.Errorf("g served = %v, want >= 3 (upload + 2 dist)", v)
	}
	if v := metricValue(t, text,
		`ccserve_tenant_requests_total{tenant="g",outcome="error"}`); v != 1 {
		t.Errorf("g error = %v, want 1", v)
	}
	if v := metricValue(t, text, `ccserve_manager{stat="graphs"}`); v != 1 {
		t.Errorf("manager graphs = %v, want 1", v)
	}
	if v := metricValue(t, text, `ccserve_process{stat="goroutines"}`); v < 1 {
		t.Errorf("process goroutines = %v", v)
	}
	if v := metricValue(t, text, `ccserve_process{stat="uptime_seconds"}`); v <= 0 {
		t.Errorf("process uptime = %v", v)
	}
	if v := metricValue(t, text, `ccserve_rebuilds_total{result="ok"}`); v != 1 {
		t.Errorf("rebuilds ok = %v, want 1", v)
	}
	version, revision := buildInfo()
	if v := metricValue(t, text, fmt.Sprintf(
		`ccserve_build_info{version=%q,revision=%q}`, version, revision)); v != 1 {
		t.Errorf("build_info = %v, want 1", v)
	}

	// Every exposed family carries a TYPE line, and the scrape itself was
	// counted by the time of a second scrape.
	text = scrape(t, base, "")
	if v := metricValue(t, text,
		`ccserve_requests_total{route="/metrics",method="GET",status="200"}`); v < 1 {
		t.Errorf("/metrics self-count = %v, want >= 1", v)
	}
}

// jsonKeys returns the keys of the JSON object raw in document order.
func jsonKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("want a JSON object, got %v (%v)", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestStatsSurfacesPinned pins the sampled stats surfaces: the stat labels
// of every /metrics gauge family, the /v1/stats key order, and that on an
// idle server the two read the same numbers.
func TestStatsSurfacesPinned(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))
	postJSON(t, newTenant(t, base, "", "g")+"/graph?wait=1", "application/json",
		`{"n":3,"edges":[[0,1,2],[1,2,3]]}`, http.StatusOK, nil)

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := scrape(t, base, "")

	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		keys []string
		want string
	}{
		{jsonKeys(t, raw), "uptime_ns http_requests http_errors graph_uploads manager process"},
		{jsonKeys(t, doc["manager"]), "graphs max_graphs total_nodes max_total_nodes created deleted evictions " +
			"persists persist_errors restored restore_errors cold_hits rehydrate_errors throttled " +
			"demotions promotions full_decodes cold_tenants cold_serves row_cache_hits row_cache_misses " +
			"row_cache_evictions build_concurrency builds_running builds_queued builds_admitted build_wait_ns tenants"},
		{jsonKeys(t, doc["process"]), "uptime_seconds go_version goroutines gomaxprocs open_fds " +
			"heap_inuse_bytes gc_pause_total_ns num_gc"},
	} {
		if got := strings.Join(c.keys, " "); got != c.want {
			t.Errorf("/v1/stats keys\n got %s\nwant %s", got, c.want)
		}
	}

	// Exposition sorts series by label value, so the labels come out sorted.
	statLine := regexp.MustCompile(`^(ccserve_[a-z_]+)\{stat="([a-z_]+)"\} `)
	labels := map[string][]string{}
	for _, line := range strings.Split(text, "\n") {
		if m := statLine.FindStringSubmatch(line); m != nil {
			labels[m[1]] = append(labels[m[1]], m[2])
		}
	}
	for fam, want := range map[string]string{
		"ccserve_manager": "cold_hits cold_serves cold_tenants created deleted demotions evictions " +
			"full_decodes graphs max_graphs max_total_nodes persist_errors persists promotions " +
			"rehydrate_errors restore_errors restored throttled total_nodes",
		"ccserve_row_cache": "capacity_rows evictions hits misses resident_rows",
		"ccserve_pool":      "in_flight tasks_completed workers",
		"ccserve_builds":    "admitted concurrency queued running wait_seconds_total",
		"ccserve_process": "gc_pause_seconds_total gomaxprocs goroutines graph_uploads heap_inuse_bytes " +
			"http_errors http_requests open_fds uptime_seconds",
	} {
		if got := strings.Join(labels[fam], " "); got != want {
			t.Errorf("%s stats\n got %s\nwant %s", fam, got, want)
		}
		delete(labels, fam)
	}
	for fam := range labels {
		t.Errorf("unexpected stat-labeled family %s", fam)
	}

	var st struct {
		Manager oracle.ManagerStats `json:"manager"`
		Process processStats        `json:"process"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`ccserve_manager{stat="graphs"}`:     float64(st.Manager.Graphs),
		`ccserve_manager{stat="evictions"}`:  float64(st.Manager.Evictions),
		`ccserve_builds{stat="admitted"}`:    float64(st.Manager.BuildsAdmitted),
		`ccserve_process{stat="gomaxprocs"}`: float64(st.Process.GOMAXPROCS),
	} {
		if got := metricValue(t, text, series); got != want {
			t.Errorf("%s = %v, /v1/stats says %v", series, got, want)
		}
	}
}

// TestRequestIDPropagation: a usable client X-Request-Id is echoed, a
// missing or garbage one is replaced with a minted hex ID.
func TestRequestIDPropagation(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)

	get := func(id string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}

	if got := get("trace-abc-123"); got != "trace-abc-123" {
		t.Errorf("client ID not echoed: got %q", got)
	}
	if got := get(""); !minted.MatchString(got) {
		t.Errorf("missing ID not minted: got %q", got)
	}
	if got := get("has space"); !minted.MatchString(got) {
		t.Errorf("garbage ID kept: got %q", got)
	}
	if got := get(strings.Repeat("x", 200)); !minted.MatchString(got) {
		t.Errorf("oversized ID kept: got %q", got)
	}
}

// TestMetricsAdminOnly: with -keys set, /metrics and /debug/pprof/ demand
// the admin key — a tenant key gets 403, no key 401.
func TestMetricsAdminOnly(t *testing.T) {
	dir := t.TempDir()
	keysPath := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(keysPath, []byte(
		`{"admin":"root-key","tenants":{"alpha":{"key":"alpha-key"}}}`), fs.FileMode(0o600)); err != nil {
		t.Fatal(err)
	}
	keys, err := loadKeyring(keysPath, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(defaultLimits())
	cfg.keys = keys
	base := startServer(t, cfg)

	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		for _, tc := range []struct {
			key  string
			want int
		}{
			{"", http.StatusUnauthorized},
			{"alpha-key", http.StatusForbidden},
			{"root-key", http.StatusOK},
		} {
			resp := doAuth(t, http.MethodGet, base+path, tc.key, "", "")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("GET %s with key %q: status %d, want %d",
					path, tc.key, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestScrapeDoesNotTouchLRU pins the acceptance criterion that monitoring
// must never decide who gets evicted: scraping /metrics between queries
// leaves the manager's recency order exactly as the queries set it.
func TestScrapeDoesNotTouchLRU(t *testing.T) {
	cfg := testConfig(defaultLimits())
	cfg.maxGraphs = 2
	base := startServer(t, cfg)

	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"a"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"b"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/a/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,1]]}`, http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs/b/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,2]]}`, http.StatusOK, nil)

	// a is touched last, so b is the LRU victim — unless a scrape disturbs
	// recency, which is exactly what must not happen.
	getJSON(t, base+"/v1/graphs/a/dist?u=0&v=1", http.StatusOK, nil)
	for i := 0; i < 3; i++ {
		scrape(t, base, "")
	}
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"c"}`, http.StatusCreated, nil)

	getJSON(t, base+"/v1/graphs/b", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/graphs/a", http.StatusOK, nil)
}

// TestBuildPhaseMetrics holds a gated build open and checks the phase
// breakdown lands both in the tenant's stats (last_build_phases) and in
// the phase-duration histogram.
func TestBuildPhaseMetrics(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))

	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"gated","algorithm":"ccserve-test-gated"}`, http.StatusCreated, nil)
	gate := resetGate()
	postJSON(t, base+"/v1/graphs/gated/graph", "application/json",
		`{"n":2,"edges":[[0,1,4]]}`, http.StatusAccepted, nil)

	const hold = 60 * time.Millisecond
	time.Sleep(hold)
	close(gate)

	// The build finishes asynchronously; poll the tenant's stats for it.
	var ts oracle.TenantStats
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, base+"/v1/graphs/gated/stats", http.StatusOK, &ts)
		if len(ts.Oracle.LastBuildPhases) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no last_build_phases after %v; stats %+v", 10*time.Second, ts)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The registry checkpoints the algorithm name before running it, so the
	// gate wait is attributed to the "ccserve-test-gated" phase.
	var gated *oracle.PhaseTiming
	for i := range ts.Oracle.LastBuildPhases {
		if ts.Oracle.LastBuildPhases[i].Phase == "ccserve-test-gated" {
			gated = &ts.Oracle.LastBuildPhases[i]
		}
	}
	if gated == nil {
		t.Fatalf("no ccserve-test-gated phase in %+v", ts.Oracle.LastBuildPhases)
	}
	if gated.Duration < hold/2 {
		t.Errorf("gated phase %v, want >= ~%v (the gate hold)", gated.Duration, hold)
	}

	text := scrape(t, base, "")
	if !strings.Contains(text, "# TYPE ccserve_build_phase_duration_seconds histogram\n") {
		t.Fatalf("no phase histogram in exposition")
	}
	if v := metricValue(t, text,
		`ccserve_build_phase_duration_seconds_count{phase="ccserve-test-gated"}`); v != 1 {
		t.Errorf("gated phase observations = %v, want 1", v)
	}
	if v := metricValue(t, text,
		`ccserve_build_phase_duration_seconds_sum{phase="ccserve-test-gated"}`); v < hold.Seconds()/2 {
		t.Errorf("gated phase sum = %vs, want >= ~%vs", v, hold.Seconds())
	}
}

// TestBuildAdmissionQueueObservable holds three gated builds behind one
// build slot and checks the queue behind it is visible in /v1/stats and
// /metrics while the uploads are in flight, then that every upload
// converges once the gate opens, with the admissions and the queue wait
// accounted.
func TestBuildAdmissionQueueObservable(t *testing.T) {
	cfg := testConfig(defaultLimits())
	cfg.buildPar = 1
	base := startServer(t, cfg)
	gate := resetGate()
	released := false
	defer func() {
		if !released {
			close(gate) // never strand the held builds on a failed assertion
		}
	}()

	tenants := []string{"alpha", "beta", "gamma"}
	for _, name := range tenants {
		postJSON(t, base+"/v1/graphs", "application/json",
			fmt.Sprintf(`{"name":%q,"algorithm":"ccserve-test-gated"}`, name), http.StatusCreated, nil)
	}
	uploads := make(chan error, len(tenants))
	for _, name := range tenants {
		go func(name string) {
			resp, err := http.Post(base+"/v1/graphs/"+name+"/graph?wait=1", "application/json",
				strings.NewReader(`{"n":4,"edges":[[0,1,3],[1,2,1],[2,3,2]]}`))
			if err != nil {
				uploads <- err
				return
			}
			defer resp.Body.Close()
			var up struct {
				Version uint64 `json:"version"`
			}
			err = json.NewDecoder(resp.Body).Decode(&up)
			if err == nil && (resp.StatusCode != http.StatusOK || up.Version < 1) {
				err = fmt.Errorf("upload %s: status %d, version %d", name, resp.StatusCode, up.Version)
			}
			uploads <- err
		}(name)
	}

	// One build holds the only slot inside the gated algorithm; the other
	// two queue at admission until the test gate opens.
	var st statsSample
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, base+"/v1/stats", http.StatusOK, &st)
		if st.Manager.BuildsRunning == 1 && st.Manager.BuildsQueued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("builds running=%d queued=%d, want 1/2", st.Manager.BuildsRunning, st.Manager.BuildsQueued)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := metricValue(t, scrape(t, base, ""), `ccserve_builds{stat="queued"}`); v != 2 {
		t.Fatalf(`ccserve_builds{stat="queued"} = %v while held, want 2`, v)
	}

	close(gate)
	released = true
	for range tenants {
		if err := <-uploads; err != nil {
			t.Fatal(err)
		}
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &st)
	if m := st.Manager; m.BuildConcurrency != 1 || m.BuildsAdmitted != 3 || m.BuildsRunning != 0 ||
		m.BuildsQueued != 0 || m.BuildWaitNS <= 0 || st.HTTPErrors != 0 {
		t.Fatalf("after release: concurrency=%d admitted=%d running=%d queued=%d wait_ns=%d http_errors=%d",
			m.BuildConcurrency, m.BuildsAdmitted, m.BuildsRunning, m.BuildsQueued, m.BuildWaitNS, st.HTTPErrors)
	}
	text := scrape(t, base, "")
	for series, want := range map[string]float64{
		`ccserve_builds{stat="concurrency"}`: 1,
		`ccserve_builds{stat="admitted"}`:    3,
		`ccserve_builds{stat="queued"}`:      0,
	} {
		if v := metricValue(t, text, series); v != want {
			t.Errorf("%s = %v, want %v", series, v, want)
		}
	}
}

// TestStatsProcessSectionAndHealthzBuild covers the /v1/stats process
// section and the build metadata /healthz reports.
func TestStatsProcessSectionAndHealthzBuild(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))
	postJSON(t, newTenant(t, base, "", "g")+"/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,1]]}`, http.StatusOK, nil)

	var stats struct {
		Process processStats `json:"process"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &stats)
	if stats.Process.GoVersion == "" || stats.Process.Goroutines < 1 ||
		stats.Process.UptimeSeconds <= 0 || stats.Process.HeapInuseBytes == 0 {
		t.Errorf("process section %+v", stats.Process)
	}

	var health struct {
		Build    string `json:"build"`
		Revision string `json:"revision"`
	}
	getJSON(t, base+"/healthz", http.StatusOK, &health)
	version, revision := buildInfo()
	if health.Build != version || health.Revision != revision {
		t.Errorf("healthz %+v, want build %q revision %q", health, version, revision)
	}
}

// TestFailLogsServerErrors pins the fail() logging contract: a 5xx is
// logged at error level with the mapped status, error text and request ID;
// a 4xx stays below info.
func TestFailLogsServerErrors(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig(defaultLimits())
	cfg.log = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(`{"name":"g"}`)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d, want 201", rec.Code)
	}
	buf.Reset()

	// No graph yet: dist fails 503 — a server-side failure.
	req := httptest.NewRequest(http.MethodGet, "/v1/graphs/g/dist?u=0&v=1", nil)
	req.Header.Set("X-Request-Id", "err-trace-1")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	logged := buf.String()
	if !strings.Contains(logged, "request failed") || !strings.Contains(logged, "level=ERROR") {
		t.Errorf("503 not logged at error level:\n%s", logged)
	}
	if !strings.Contains(logged, "id=err-trace-1") {
		t.Errorf("5xx log line lacks the request ID:\n%s", logged)
	}

	// A malformed query is the client's fault: logged, but below info.
	buf.Reset()
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs/g/dist?u=zzz&v=1", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	logged = buf.String()
	if !strings.Contains(logged, "request rejected") || !strings.Contains(logged, "level=DEBUG") {
		t.Errorf("400 not logged at debug level:\n%s", logged)
	}
}

// TestRequestLogLevels pins the completion line's levels: debug for a
// request that went well, warn for one slower than -slowquery, error for a
// 5xx. At the default info floor a healthy request logs nothing.
func TestRequestLogLevels(t *testing.T) {
	var buf bytes.Buffer
	serve := func(s *server, method, target, body string) (int, string) {
		t.Helper()
		buf.Reset()
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code, buf.String()
	}
	// line returns the completion line (msg=request or msg="slow request").
	line := func(logged string) string {
		for _, l := range strings.Split(logged, "\n") {
			if strings.Contains(l, "msg=request ") || strings.Contains(l, `msg="slow request"`) {
				return l
			}
		}
		return ""
	}

	cfg := testConfig(defaultLimits())
	cfg.log = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, logged := serve(s, http.MethodPost, "/v1/graphs", `{"name":"g"}`); code != http.StatusCreated ||
		!strings.Contains(line(logged), "level=DEBUG") {
		t.Fatalf("create: status %d, completion line %q, want 201 at debug", code, line(logged))
	}
	// No graph yet: dist fails 503.
	if code, logged := serve(s, http.MethodGet, "/v1/graphs/g/dist?u=0&v=1", ""); code != http.StatusServiceUnavailable ||
		!strings.Contains(line(logged), "level=ERROR") {
		t.Fatalf("dist: status %d, completion line %q, want 503 at error", code, line(logged))
	}

	cfg.log = slog.New(slog.NewTextHandler(&buf, nil)) // the info floor
	cfg.slowQuery = time.Nanosecond                    // every request is slow
	slow, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if code, logged := serve(slow, http.MethodPost, "/v1/graphs", `{"name":"g"}`); code != http.StatusCreated ||
		!strings.Contains(line(logged), "level=WARN") {
		t.Fatalf("slow create: status %d, completion line %q, want 201 at warn", code, line(logged))
	}

	cfg.slowQuery = 0
	quiet, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	if code, logged := serve(quiet, http.MethodGet, "/v1/graphs", ""); code != http.StatusOK || logged != "" {
		t.Fatalf("list at the info floor: status %d, logged %q, want 200 and nothing", code, logged)
	}
}
