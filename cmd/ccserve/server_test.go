package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
)

func init() {
	// A central exact backend keeps the end-to-end tests fast and makes every
	// expected response value checkable against cliqueapsp.Exact; the doubled
	// variant gives multi-tenant tests an observably different algorithm.
	mustRegister("ccserve-test-exact", cliqueapsp.AlgorithmSpec{
		Summary:     "central exact backend for ccserve tests",
		FactorBound: "1",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			return cliqueapsp.AlgorithmOutput{Distances: cliqueapsp.Exact(g), Factor: 1}, nil
		},
	})
	mustRegister("ccserve-test-double", cliqueapsp.AlgorithmSpec{
		Summary:     "doubled exact distances for multi-tenant ccserve tests",
		FactorBound: "2",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			exact := cliqueapsp.Exact(g)
			n := g.N()
			rows := make([][]int64, n)
			for u := 0; u < n; u++ {
				rows[u] = make([]int64, n)
				for v := 0; v < n; v++ {
					d := exact.At(u, v)
					if d < cliqueapsp.Inf {
						d *= 2
					}
					rows[u][v] = d
				}
			}
			doubled, err := cliqueapsp.DistancesFromSlices(rows)
			if err != nil {
				return cliqueapsp.AlgorithmOutput{}, err
			}
			return cliqueapsp.AlgorithmOutput{Distances: doubled, Factor: 2}, nil
		},
	})
}

// The gate holds "ccserve-test-gated" builds hostage until the test that
// armed it closes it, so tests control exactly when a ?wait=1 rebuild
// finishes. Each user calls resetGate() first: the gate is per-arming, so
// the test binary survives -count=N without closing a closed channel.
var (
	gateMu       sync.Mutex
	gateReleased = make(chan struct{})
)

func currentGate() chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	return gateReleased
}

// resetGate installs and returns a fresh, unreleased gate.
func resetGate() chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	gateReleased = make(chan struct{})
	return gateReleased
}

func init() {
	mustRegister("ccserve-test-gated", cliqueapsp.AlgorithmSpec{
		Summary:     "exact distances, but only after the test gate is released",
		FactorBound: "1",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			select {
			case <-currentGate():
			case <-ctx.Done():
				return cliqueapsp.AlgorithmOutput{}, ctx.Err()
			}
			return cliqueapsp.AlgorithmOutput{Distances: cliqueapsp.Exact(g), Factor: 1}, nil
		},
	})
	mustRegister("ccserve-test-failing", cliqueapsp.AlgorithmSpec{
		Summary:     "always fails: exercises build-error reporting",
		FactorBound: "1",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			return cliqueapsp.AlgorithmOutput{}, fmt.Errorf("synthetic build failure")
		},
	})
}

func mustRegister(name cliqueapsp.Algorithm, spec cliqueapsp.AlgorithmSpec) {
	if err := cliqueapsp.Register(name, spec); err != nil {
		panic(err)
	}
}

func testConfig(lim limits) serverConfig {
	return serverConfig{
		lim:  lim,
		base: oracle.Config{Algorithm: "ccserve-test-exact"},
	}
}

// testLogger routes the server's structured log through t.Logf so failures
// show the request log interleaved with the test's own output.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// startServer spins up a real HTTP server on a random loopback port, the
// same wiring main uses, and returns its base URL.
func startServer(t *testing.T, cfg serverConfig) string {
	t.Helper()
	cfg.log = testLogger(t)
	handler, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(handler.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	t.Cleanup(func() {
		// Drop the default client's pooled connections first: a spare conn
		// from the transport's dial race never carries a request, and the
		// server can't reap a StateNew conn until it is 5s old (go#22682) —
		// Shutdown would burn its whole budget waiting on it.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	})
	return "http://" + ln.Addr().String()
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, wantStatus, out)
}

func postJSON(t *testing.T, url, contentType, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, wantStatus, out)
}

func doJSON(t *testing.T, method, url string, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, wantStatus, out)
}

// doAuth issues a request with an optional "Authorization: Bearer key"
// header and returns the raw response (callers need status AND headers for
// the 401/403/429 assertions).
func doAuth(t *testing.T, method, url, key, contentType, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// authJSON is doAuth + status assertion + JSON decode, returning the
// response headers.
func authJSON(t *testing.T, method, url, key, contentType, body string, wantStatus int, out any) http.Header {
	t.Helper()
	resp := doAuth(t, method, url, key, contentType, body)
	decodeBody(t, resp, wantStatus, out)
	return resp.Header
}

func decodeBody(t *testing.T, resp *http.Response, wantStatus int, out any) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d), body %s",
			resp.Request.Method, resp.Request.URL, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
}

// newTenant creates name through POST /v1/graphs (key "" on an open
// server, else the admin key) and returns the base URL of its
// /v1/graphs/{name} routes.
func newTenant(t *testing.T, base, key, name string) string {
	t.Helper()
	authJSON(t, http.MethodPost, base+"/v1/graphs", key, "application/json",
		fmt.Sprintf(`{"name":%q}`, name), http.StatusCreated, nil)
	return base + "/v1/graphs/" + name
}

func TestServerEndToEnd(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))

	// Health answers from the start; it reports the fleet, it does not wait.
	var health struct {
		Graphs int `json:"graphs"`
	}
	getJSON(t, base+"/healthz", http.StatusOK, &health)
	if health.Graphs != 0 {
		t.Fatalf("healthz graphs = %d before any create, want 0", health.Graphs)
	}

	// Before any graph: queries say 503.
	g := newTenant(t, base, "", "g")
	getJSON(t, g+"/dist?u=0&v=1", http.StatusServiceUnavailable, nil)

	// Upload the quickstart path 0-3-1-1-2-2-3 and wait for the build.
	var up struct {
		Version uint64 `json:"version"`
		N       int    `json:"n"`
		M       int    `json:"m"`
		Ready   bool   `json:"ready"`
	}
	postJSON(t, g+"/graph?wait=1", "application/json",
		`{"n":4,"edges":[[0,1,3],{"u":1,"v":2,"w":1},[2,3,2]]}`, http.StatusOK, &up)
	if up.Version == 0 || up.N != 4 || up.M != 3 || !up.Ready {
		t.Fatalf("upload response %+v", up)
	}

	var dist oracle.DistResult
	getJSON(t, g+"/dist?u=0&v=3", http.StatusOK, &dist)
	if !dist.Reachable || dist.Distance != 6 || dist.Version != up.Version {
		t.Fatalf("dist response %+v", dist)
	}

	var batch oracle.BatchResult
	postJSON(t, g+"/batch", "application/json",
		`{"pairs":[[0,1],[0,3],{"u":3,"v":0}]}`, http.StatusOK, &batch)
	if batch.Version != up.Version || len(batch.Answers) != 3 {
		t.Fatalf("batch response %+v", batch)
	}
	if batch.Answers[1].Distance != 6 || batch.Answers[2].Distance != 6 {
		t.Fatalf("batch distances %+v", batch.Answers)
	}

	var path oracle.PathResult
	getJSON(t, g+"/path?u=0&v=3", http.StatusOK, &path)
	if !path.Reachable || path.Cost != 6 || len(path.Path) != 4 || path.Version != up.Version {
		t.Fatalf("path response %+v", path)
	}

	var stats struct {
		HTTPRequests uint64              `json:"http_requests"`
		HTTPErrors   uint64              `json:"http_errors"`
		GraphUploads uint64              `json:"graph_uploads"`
		Manager      oracle.ManagerStats `json:"manager"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &stats)
	if stats.GraphUploads != 1 {
		t.Fatalf("stats %+v", stats)
	}
	// Exactly one error so far: the not-ready dist.
	if stats.HTTPErrors != 1 {
		t.Fatalf("http_errors = %d, want 1", stats.HTTPErrors)
	}
	if stats.HTTPRequests == 0 {
		t.Fatal("no http requests counted")
	}
	// The manager aggregate reports the tenant with its own counters.
	if stats.Manager.Graphs != 1 || len(stats.Manager.Tenants) != 1 {
		t.Fatalf("manager stats %+v", stats.Manager)
	}
	ts := stats.Manager.Tenants[0]
	if ts.Name != "g" || ts.Nodes != 4 || ts.Oracle.Version != up.Version || ts.Oracle.GraphN != 4 {
		t.Fatalf("tenant stats %+v", ts)
	}
	if ts.Oracle.DistQueries != 1 || ts.Oracle.BatchQueries != 1 || ts.Oracle.PathQueries != 1 {
		t.Fatalf("query counters %+v", ts.Oracle)
	}

	getJSON(t, base+"/healthz", http.StatusOK, &health)
	if health.Graphs != 1 {
		t.Fatalf("healthz graphs = %d after the create, want 1", health.Graphs)
	}
}

func TestServerEdgeListUploadAndSecondGraph(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))

	// First graph via JSON, second via the ccgen edge-list format; versions
	// must increase and answers must switch to the new snapshot.
	tn := newTenant(t, base, "", "g")
	postJSON(t, tn+"/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,9]]}`, http.StatusOK, nil)

	g := cliqueapsp.NewGraph(3)
	if err := g.AddEdge(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var up struct {
		Version uint64 `json:"version"`
	}
	postJSON(t, tn+"/graph?wait=1", "text/plain", buf.String(), http.StatusOK, &up)
	if up.Version != 2 {
		t.Fatalf("second upload version %d", up.Version)
	}
	var dist oracle.DistResult
	getJSON(t, tn+"/dist?u=0&v=2", http.StatusOK, &dist)
	if dist.Distance != 8 || dist.Version != 2 {
		t.Fatalf("dist after swap %+v", dist)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	lim := defaultLimits()
	lim.maxBatch = 2
	lim.maxNodes = 8
	base := startServer(t, testConfig(lim))
	g := newTenant(t, base, "", "g")

	postJSON(t, g+"/graph?wait=1", "application/json",
		`{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1]]}`, http.StatusOK, nil)

	// Method and parameter errors.
	postJSON(t, g+"/dist", "application/json", `{}`, http.StatusMethodNotAllowed, nil)
	getJSON(t, g+"/dist?u=zero&v=1", http.StatusBadRequest, nil)
	getJSON(t, g+"/dist?u=0&v=99", http.StatusBadRequest, nil)
	getJSON(t, g+"/path?u=0", http.StatusBadRequest, nil)

	// Malformed and oversized bodies.
	postJSON(t, g+"/batch", "application/json", `{"pairs":`, http.StatusBadRequest, nil)
	postJSON(t, g+"/batch", "application/json", `{"pairs":[]}`, http.StatusBadRequest, nil)
	postJSON(t, g+"/batch", "application/json",
		`{"pairs":[[0,1],[1,2],[2,3]]}`, http.StatusRequestEntityTooLarge, nil)
	postJSON(t, g+"/batch", "application/json",
		`{"pairs":[[0,1,2]]}`, http.StatusBadRequest, nil)
	postJSON(t, g+"/graph", "application/json",
		`{"n":9,"edges":[]}`, http.StatusRequestEntityTooLarge, nil)
	postJSON(t, g+"/graph", "application/json",
		`{"n":2,"edges":[[0,0,1]]}`, http.StatusBadRequest, nil)
	postJSON(t, g+"/graph", "text/plain", "not a graph", http.StatusBadRequest, nil)
	// An edge-list problem line sizes the graph before the node limit is
	// checked, so an absurd n must fail in the parser, not take the
	// process down asking for terabytes.
	postJSON(t, g+"/graph", "text/plain", "p 101000000000 0\n", http.StatusBadRequest, nil)

	// The serving snapshot survived all of the above.
	var dist oracle.DistResult
	getJSON(t, g+"/dist?u=0&v=3", http.StatusOK, &dist)
	if dist.Distance != 3 {
		t.Fatalf("dist after bad requests %+v", dist)
	}
}

func TestServerAsyncUploadEventuallyServes(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))
	g := newTenant(t, base, "", "g")
	var up struct {
		Version uint64 `json:"version"`
		Ready   bool   `json:"ready"`
	}
	postJSON(t, g+"/graph", "application/json",
		`{"n":2,"edges":[[0,1,5]]}`, http.StatusAccepted, &up)
	if up.Ready {
		t.Fatal("async upload reported ready")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(g + "/dist?u=0&v=1")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var dist oracle.DistResult
			decodeBody(t, resp, http.StatusOK, &dist)
			if dist.Distance != 5 || dist.Version != up.Version {
				t.Fatalf("dist %+v", dist)
			}
			return
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("snapshot never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerMultiTenantEndToEnd is the acceptance criterion: one ccserve
// process serves two named graphs under different algorithms concurrently,
// while a third tenant on the server's default algorithm keeps serving
// untouched.
func TestServerMultiTenantEndToEnd(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))

	plain := newTenant(t, base, "", "plain")
	postJSON(t, plain+"/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,11]]}`, http.StatusOK, nil)

	// Two named tenants: exact and doubled estimates over the same graph.
	var created tenantSummary
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"exact","algorithm":"ccserve-test-exact"}`, http.StatusCreated, &created)
	if created.Name != "exact" || created.Ready {
		t.Fatalf("create response %+v", created)
	}
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"double","algorithm":"ccserve-test-double","seed":7}`, http.StatusCreated, nil)

	graph := `{"n":4,"edges":[[0,1,3],[1,2,1],[2,3,2]]}`
	postJSON(t, base+"/v1/graphs/exact/graph?wait=1", "application/json", graph, http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs/double/graph?wait=1", "application/json", graph, http.StatusOK, nil)

	// Concurrent queries across tenants: each answers under its own
	// algorithm, and the plain tenant is unaffected.
	var wg sync.WaitGroup
	errc := make(chan error, 3)
	for _, tc := range []struct {
		path string
		want int64
	}{
		{"/v1/graphs/exact/dist?u=0&v=3", 6},
		{"/v1/graphs/double/dist?u=0&v=3", 12},
		{"/v1/graphs/plain/dist?u=0&v=1", 11},
	} {
		wg.Add(1)
		go func(path string, want int64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Get(base + path)
				if err != nil {
					errc <- err
					return
				}
				var dist oracle.DistResult
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d, err %v", path, resp.StatusCode, err)
					return
				}
				if err := json.Unmarshal(raw, &dist); err != nil {
					errc <- err
					return
				}
				if dist.Distance != want {
					errc <- fmt.Errorf("%s = %d, want %d", path, dist.Distance, want)
					return
				}
			}
		}(tc.path, tc.want)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Batch and path work per tenant too.
	var batch oracle.BatchResult
	postJSON(t, base+"/v1/graphs/double/batch", "application/json",
		`{"pairs":[[0,3]]}`, http.StatusOK, &batch)
	if batch.Answers[0].Distance != 12 {
		t.Fatalf("tenant batch %+v", batch)
	}
	var path oracle.PathResult
	getJSON(t, base+"/v1/graphs/exact/path?u=0&v=3", http.StatusOK, &path)
	if !path.Reachable || path.Cost != 6 {
		t.Fatalf("tenant path %+v", path)
	}

	// Listing and per-tenant stats expose all three graphs.
	var list struct {
		Count  int             `json:"count"`
		Graphs []tenantSummary `json:"graphs"`
	}
	getJSON(t, base+"/v1/graphs", http.StatusOK, &list)
	if list.Count != 3 || len(list.Graphs) != 3 {
		t.Fatalf("graph list %+v", list)
	}
	byName := map[string]tenantSummary{}
	for _, g := range list.Graphs {
		byName[g.Name] = g
	}
	if byName["exact"].Algorithm != "ccserve-test-exact" || byName["double"].Algorithm != "ccserve-test-double" {
		t.Fatalf("algorithms in listing: %+v", byName)
	}
	if byName["plain"].N != 2 {
		t.Fatalf("plain in listing: %+v", byName["plain"])
	}

	var ts oracle.TenantStats
	getJSON(t, base+"/v1/graphs/double/stats", http.StatusOK, &ts)
	if ts.Name != "double" || ts.Oracle.DistQueries == 0 || ts.Oracle.Algorithm != "ccserve-test-double" {
		t.Fatalf("tenant stats %+v", ts)
	}

	// Deleting a tenant removes it from the listing; its routes 404.
	doJSON(t, http.MethodDelete, base+"/v1/graphs/double", http.StatusOK, nil)
	getJSON(t, base+"/v1/graphs/double/dist?u=0&v=1", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/graphs", http.StatusOK, &list)
	if list.Count != 2 {
		t.Fatalf("count after delete %d", list.Count)
	}
}

// TestServerLRUEvictionObservable fills the manager past -maxgraphs and
// checks the eviction shows up in /v1/stats.
func TestServerLRUEvictionObservable(t *testing.T) {
	cfg := testConfig(defaultLimits())
	cfg.maxGraphs = 2
	base := startServer(t, cfg)

	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"a"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"b"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/a/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,1]]}`, http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs/b/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,2]]}`, http.StatusOK, nil)

	// Touch a so b is the LRU victim, then create c.
	getJSON(t, base+"/v1/graphs/a/dist?u=0&v=1", http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"c"}`, http.StatusCreated, nil)

	getJSON(t, base+"/v1/graphs/b", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/graphs/a", http.StatusOK, nil)

	var stats struct {
		Manager oracle.ManagerStats `json:"manager"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &stats)
	if stats.Manager.Evictions != 1 || stats.Manager.Graphs != 2 {
		t.Fatalf("manager stats after eviction %+v", stats.Manager)
	}
	names := make([]string, 0, 2)
	for _, ts := range stats.Manager.Tenants {
		names = append(names, ts.Name)
	}
	if fmt.Sprint(names) != "[a c]" {
		t.Fatalf("tenants after eviction %v", names)
	}
}

// TestServerTenantRouteErrors covers the 404/405/limit surfaces of the
// /v1/graphs tree.
func TestServerTenantRouteErrors(t *testing.T) {
	resetGate() // never released: held's build keeps it from being idle
	cfg := testConfig(defaultLimits())
	cfg.maxGraphs = 1
	base := startServer(t, cfg)
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"held","algorithm":"ccserve-test-gated"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/held/graph", "application/json",
		`{"n":2,"edges":[[0,1,1]]}`, http.StatusAccepted, nil)

	// Create validation.
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":""}`, http.StatusBadRequest, nil)
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"bad/name"}`, http.StatusBadRequest, nil)
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":".hidden"}`, http.StatusBadRequest, nil)
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"x","algorithm":"no-such-algorithm"}`, http.StatusBadRequest, nil)
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"held"}`, http.StatusConflict, nil)
	// Capacity: the only slot is held by a building (so not idle) tenant.
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"x"}`, http.StatusTooManyRequests, nil)

	// Unknown tenants and ops are 404; wrong methods are 405 with Allow.
	getJSON(t, base+"/v1/graphs/ghost", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/graphs/ghost/dist?u=0&v=1", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/graphs/held/nosuchop", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/graphs/held/dist/extra", http.StatusNotFound, nil)
	doJSON(t, http.MethodPut, base+"/v1/graphs", http.StatusMethodNotAllowed, nil)
	doJSON(t, http.MethodPost, base+"/v1/graphs/held", http.StatusMethodNotAllowed, nil)
	doJSON(t, http.MethodPost, base+"/v1/graphs/held/dist", http.StatusMethodNotAllowed, nil)
	doJSON(t, http.MethodGet, base+"/v1/graphs/held/batch", http.StatusMethodNotAllowed, nil)
	doJSON(t, http.MethodDelete, base+"/v1/graphs/ghost", http.StatusNotFound, nil)
}

// TestServerPerTenantNodeLimit checks a tenant's max_nodes tightens the
// global -maxn for that tenant only.
func TestServerPerTenantNodeLimit(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))

	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"small","max_nodes":3}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/small/graph?wait=1", "application/json",
		`{"n":4,"edges":[[0,1,1]]}`, http.StatusRequestEntityTooLarge, nil)
	postJSON(t, base+"/v1/graphs/small/graph?wait=1", "application/json",
		`{"n":3,"edges":[[0,1,1],[1,2,1]]}`, http.StatusOK, nil)
	// Another tenant still accepts up to the global limit.
	postJSON(t, newTenant(t, base, "", "big")+"/graph?wait=1", "application/json",
		`{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1]]}`, http.StatusOK, nil)
}

// TestServerNodeLimitSurvivesEviction checks a persisted tenant's max_nodes
// comes back with it after LRU eviction and rehydration, and that DELETE
// plus a re-create without max_nodes leaves only the global -maxn.
func TestServerNodeLimitSurvivesEviction(t *testing.T) {
	snapshots, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lim := defaultLimits()
	lim.maxNodes = 5
	cfg := testConfig(lim)
	cfg.snapshots = snapshots
	cfg.maxGraphs = 1
	base := startServer(t, cfg)
	small := base + "/v1/graphs/small"

	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"small","max_nodes":3}`, http.StatusCreated, nil)
	postJSON(t, small+"/graph?wait=1", "application/json",
		`{"n":3,"edges":[[0,1,1],[1,2,1]]}`, http.StatusOK, nil)
	// A second tenant takes the only slot: small is evicted, not lost.
	newTenant(t, base, "", "other")
	var sum tenantSummary
	getJSON(t, small, http.StatusOK, &sum)
	if !sum.Evicted {
		t.Fatalf("small after eviction: %+v, want evicted", sum)
	}

	// The upload rehydrates small, which must still enforce its own cap.
	postJSON(t, small+"/graph?wait=1", "application/json",
		`{"n":4,"edges":[[0,1,1]]}`, http.StatusRequestEntityTooLarge, nil)
	postJSON(t, small+"/graph?wait=1", "application/json",
		`{"n":3,"edges":[[0,1,2]]}`, http.StatusOK, nil)
	var st struct {
		Manager oracle.ManagerStats `json:"manager"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &st)
	if st.Manager.ColdHits != 1 || st.Manager.Evictions != 2 {
		t.Fatalf("manager %+v, want one rehydration after two evictions", st.Manager)
	}

	// Delete forgets the cap: the re-created name takes up to -maxn.
	doJSON(t, http.MethodDelete, small, http.StatusOK, nil)
	newTenant(t, base, "", "small")
	postJSON(t, small+"/graph?wait=1", "application/json",
		`{"n":5,"edges":[[0,1,1]]}`, http.StatusOK, nil)
	postJSON(t, small+"/graph?wait=1", "application/json",
		`{"n":6,"edges":[[0,1,1]]}`, http.StatusRequestEntityTooLarge, nil)
}

// TestServerSnapshotProbeFailureIs500 checks both single-name monitoring
// routes answer 500, not 404, when the persisted-snapshot probe fails (here:
// a regular file where the tenant's directory would be). A 404 would invite
// a create that replaces whatever the store holds under the name.
func TestServerSnapshotProbeFailureIs500(t *testing.T) {
	dir := t.TempDir()
	snapshots, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(defaultLimits())
	cfg.snapshots = snapshots
	base := startServer(t, cfg)
	if err := os.WriteFile(filepath.Join(dir, "ghost"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	getJSON(t, base+"/v1/graphs/ghost", http.StatusInternalServerError, nil)
	getJSON(t, base+"/v1/graphs/ghost/stats", http.StatusInternalServerError, nil)
	// A name with nothing on disk is still a plain 404 on both.
	getJSON(t, base+"/v1/graphs/nobody", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/graphs/nobody/stats", http.StatusNotFound, nil)
}

// TestServerNodeBudgetAdmission checks -maxtotaln admission over the
// /v1/graphs tree: a graph that cannot fit is 429, and freeing capacity by
// eviction keeps the server serving.
func TestServerNodeBudgetAdmission(t *testing.T) {
	cfg := testConfig(defaultLimits())
	cfg.maxTotalNodes = 10
	base := startServer(t, cfg)

	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"a"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/a/graph?wait=1", "application/json",
		`{"n":6,"edges":[[0,1,1]]}`, http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"b"}`, http.StatusCreated, nil)
	// 11 > 10: cannot fit even if a's 6 nodes were evicted, so admission
	// rejects with 429 — and must NOT have evicted a on the way.
	postJSON(t, base+"/v1/graphs/b/graph?wait=1", "application/json",
		`{"n":11,"edges":[[0,1,1]]}`, http.StatusTooManyRequests, nil)
	getJSON(t, base+"/v1/graphs/a", http.StatusOK, nil)
	// A 4-node graph fits alongside a's 6 without eviction.
	postJSON(t, base+"/v1/graphs/b/graph?wait=1", "application/json",
		`{"n":4,"edges":[[0,1,1]]}`, http.StatusOK, nil)

	var stats struct {
		Manager oracle.ManagerStats `json:"manager"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &stats)
	if stats.Manager.TotalNodes != 10 || stats.Manager.MaxTotalNodes != 10 || stats.Manager.Evictions != 0 {
		t.Fatalf("node budget %+v", stats.Manager)
	}

	// Growing b to 8 nodes must evict the idle LRU tenant a (frees 6 ≥ the
	// 4 over budget) and then fit.
	postJSON(t, base+"/v1/graphs/b/graph?wait=1", "application/json",
		`{"n":8,"edges":[[0,1,1]]}`, http.StatusOK, nil)
	getJSON(t, base+"/v1/graphs/a", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/stats", http.StatusOK, &stats)
	if stats.Manager.TotalNodes != 8 || stats.Manager.Evictions != 1 {
		t.Fatalf("after evicting admission %+v", stats.Manager)
	}
}

// TestServerRejectsDuplicateAndBadEdges pins the strict upload validation:
// duplicate and out-of-range edge endpoints are client errors (400) that
// name the offending edge index, never 5xx.
func TestServerRejectsDuplicateAndBadEdges(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))
	g := newTenant(t, base, "", "g")
	var errBody struct {
		Error string `json:"error"`
	}

	postJSON(t, g+"/graph", "application/json",
		`{"n":4,"edges":[[0,1,3],[1,2,1],[1,0,9]]}`, http.StatusBadRequest, &errBody)
	if !strings.Contains(errBody.Error, "edge 2") || !strings.Contains(errBody.Error, "duplicate of edge 0") {
		t.Fatalf("duplicate-edge error %q, want the offending and original indices", errBody.Error)
	}

	postJSON(t, g+"/graph", "application/json",
		`{"n":4,"edges":[[0,1,3],[1,7,1]]}`, http.StatusBadRequest, &errBody)
	if !strings.Contains(errBody.Error, "edge 1") || !strings.Contains(errBody.Error, "out of range") {
		t.Fatalf("out-of-range error %q, want the offending index", errBody.Error)
	}

	// Object-form edges share the validation.
	postJSON(t, g+"/graph", "application/json",
		`{"n":3,"edges":[{"u":0,"v":1},{"u":1,"v":0,"w":5}]}`, http.StatusBadRequest, &errBody)
	if !strings.Contains(errBody.Error, "edge 1") || !strings.Contains(errBody.Error, "duplicate of edge 0") {
		t.Fatalf("tenant duplicate-edge error %q", errBody.Error)
	}

	// The plain edge-list branch is just as strict (pair, not index: the
	// parser reports line numbers, not edge indices).
	postJSON(t, g+"/graph", "text/plain",
		"p 3 2\ne 0 1 3\ne 1 0 9\n", http.StatusBadRequest, &errBody)
	if !strings.Contains(errBody.Error, "duplicate edge {0,1}") {
		t.Fatalf("edge-list duplicate error %q", errBody.Error)
	}
}

// TestServerPersistenceAcrossRestart is the daemon-level restart property:
// a second server over the same -datadir serves both tenants from restored
// snapshots — correct answers, preserved versions, zero rebuilds.
func TestServerPersistenceAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	open := func() (string, func()) {
		snapshots, err := store.Open(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(defaultLimits())
		cfg.snapshots = snapshots
		cfg.log = testLogger(t)
		handler, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: handler}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(ln)
		}()
		stop := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			<-done
			handler.Close()
		}
		return "http://" + ln.Addr().String(), stop
	}

	base, stop := open()
	postJSON(t, newTenant(t, base, "", "alpha")+"/graph?wait=1", "application/json",
		`{"n":4,"edges":[[0,1,3],[1,2,1],[2,3,2]]}`, http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"beta","algorithm":"ccserve-test-double"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/beta/graph?wait=1", "application/json",
		`{"n":3,"edges":[[0,1,2],[1,2,2]]}`, http.StatusOK, nil)
	stop()

	base, stop = open()
	defer stop()

	// Restored fleet serves immediately: both tenants are hosted before any
	// upload.
	var health struct {
		Graphs int `json:"graphs"`
	}
	getJSON(t, base+"/healthz", http.StatusOK, &health)
	if health.Graphs != 2 {
		t.Fatalf("healthz graphs = %d after restore, want 2", health.Graphs)
	}
	var dist oracle.DistResult
	getJSON(t, base+"/v1/graphs/alpha/dist?u=0&v=3", http.StatusOK, &dist)
	if dist.Distance != 6 || dist.Version != 1 {
		t.Fatalf("restored alpha Dist = %+v, want 6 @ v1", dist)
	}
	getJSON(t, base+"/v1/graphs/beta/dist?u=0&v=2", http.StatusOK, &dist)
	if dist.Distance != 8 { // test-double persisted doubled distances
		t.Fatalf("restored beta Dist = %+v, want 8", dist)
	}

	var st struct {
		Manager oracle.ManagerStats `json:"manager"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &st)
	if st.Manager.Restored != 2 || st.Manager.RestoreErrors != 0 {
		t.Fatalf("restore counters %+v, want 2 restored", st.Manager)
	}
	for _, ts := range st.Manager.Tenants {
		if ts.Oracle.Rebuilds != 0 || ts.Oracle.Restores != 1 {
			t.Fatalf("tenant %q ran the engine after restart: %+v", ts.Name, ts.Oracle)
		}
	}

	// Uploads on the restored fleet keep working and supersede the restore.
	var up struct {
		Version uint64 `json:"version"`
	}
	postJSON(t, base+"/v1/graphs/alpha/graph?wait=1", "application/json",
		`{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1]]}`, http.StatusOK, &up)
	if up.Version <= 1 {
		t.Fatalf("post-restore upload version %d, want > 1", up.Version)
	}
	getJSON(t, base+"/v1/graphs/alpha/dist?u=0&v=3", http.StatusOK, &dist)
	if dist.Distance != 3 {
		t.Fatalf("post-restore rebuild Dist = %+v, want 3", dist)
	}
}

// TestServerOversizedBodyIs413 pins the -maxbody mapping: a body the
// MaxBytesReader truncates mid-decode must report 413 entity-too-large,
// not 400 bad-request — the client's JSON was fine, its size was not.
func TestServerOversizedBodyIs413(t *testing.T) {
	lim := defaultLimits()
	lim.maxBody = 256
	base := startServer(t, testConfig(lim))
	g := newTenant(t, base, "", "g")

	postJSON(t, g+"/graph?wait=1", "application/json",
		`{"n":3,"edges":[[0,1,1],[1,2,1]]}`, http.StatusOK, nil)

	// JSON batch over the cap: the decoder hits the byte limit mid-array.
	big := `{"pairs":[` + strings.Repeat(`[0,1],`, 100) + `[0,1]]}`
	var errBody struct {
		Error string `json:"error"`
	}
	postJSON(t, g+"/batch", "application/json", big, http.StatusRequestEntityTooLarge, &errBody)
	if !strings.Contains(errBody.Error, "request body too large") {
		t.Fatalf("413 error %q does not name the body limit", errBody.Error)
	}

	// JSON graph upload and the plain edge-list branch map the same way.
	bigGraph := `{"n":3,"edges":[` + strings.Repeat(`[0,1,1],`, 100) + `[0,1,1]]}`
	postJSON(t, g+"/graph", "application/json", bigGraph, http.StatusRequestEntityTooLarge, nil)
	postJSON(t, g+"/graph", "text/plain",
		"p 2 1\n"+strings.Repeat("c padding comment line\n", 50), http.StatusRequestEntityTooLarge, nil)

	// A small malformed body is still a plain 400.
	postJSON(t, g+"/batch", "application/json", `{"pairs":`, http.StatusBadRequest, nil)

	// The serving snapshot survived all of it.
	var dist oracle.DistResult
	getJSON(t, g+"/dist?u=0&v=2", http.StatusOK, &dist)
	if dist.Distance != 2 {
		t.Fatalf("dist after oversized bodies %+v", dist)
	}
}

// TestServerTrailingGarbageIs400 pins strict JSON framing: a second JSON
// value (or raw garbage) after the first must be rejected, not silently
// truncated into a half-honored request.
func TestServerTrailingGarbageIs400(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))
	g := newTenant(t, base, "", "g")
	postJSON(t, g+"/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,5]]}`, http.StatusOK, nil)

	var errBody struct {
		Error string `json:"error"`
	}
	postJSON(t, g+"/batch", "application/json",
		`{"pairs":[[0,1]]}{"oops":1}`, http.StatusBadRequest, &errBody)
	if !strings.Contains(errBody.Error, "trailing data") {
		t.Fatalf("trailing-garbage error %q", errBody.Error)
	}
	postJSON(t, g+"/batch", "application/json",
		`{"pairs":[[0,1]]} garbage`, http.StatusBadRequest, nil)
	postJSON(t, g+"/graph", "application/json",
		`{"n":2,"edges":[[0,1,5]]}[1,2]`, http.StatusBadRequest, nil)
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"x"}{"name":"y"}`, http.StatusBadRequest, nil)

	// Trailing whitespace is not garbage.
	postJSON(t, g+"/batch", "application/json",
		"{\"pairs\":[[0,1]]}\n\t \n", http.StatusOK, nil)

	// Nothing above disturbed the snapshot, and the half-valid bodies were
	// NOT half-applied: "x" was never created.
	getJSON(t, base+"/v1/graphs/x", http.StatusNotFound, nil)
	var dist oracle.DistResult
	getJSON(t, g+"/dist?u=0&v=1", http.StatusOK, &dist)
	if dist.Distance != 5 {
		t.Fatalf("dist after trailing-garbage bodies %+v", dist)
	}
}

// TestServerCanceledWaitIsNotAServerError pins the ?wait=1 cancellation
// semantics: a client abandoning its wait is not a 500, does not inflate
// http_errors, and does not abort the build — the snapshot still lands.
func TestServerCanceledWaitIsNotAServerError(t *testing.T) {
	gate := resetGate()
	base := startServer(t, testConfig(defaultLimits()))
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"slow","algorithm":"ccserve-test-gated"}`, http.StatusCreated, nil)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/graphs/slow/graph?wait=1", strings.NewReader(`{"n":2,"edges":[[0,1,5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("canceled wait returned a response: %d", resp.StatusCode)
	}
	// Give the handler a beat to observe the cancellation and finish.
	time.Sleep(200 * time.Millisecond)

	var st struct {
		HTTPErrors   uint64 `json:"http_errors"`
		GraphUploads uint64 `json:"graph_uploads"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &st)
	if st.HTTPErrors != 0 {
		t.Fatalf("http_errors = %d after a client-canceled wait, want 0", st.HTTPErrors)
	}
	if st.GraphUploads != 1 {
		t.Fatalf("graph_uploads = %d, want 1 (the upload was accepted)", st.GraphUploads)
	}

	// Release the build: it must complete and serve despite the client
	// having walked away.
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sum tenantSummary
		getJSON(t, base+"/v1/graphs/slow", http.StatusOK, &sum)
		if sum.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned build never served")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var dist oracle.DistResult
	getJSON(t, base+"/v1/graphs/slow/dist?u=0&v=1", http.StatusOK, &dist)
	if dist.Distance != 5 || dist.Version != 1 {
		t.Fatalf("dist after abandoned wait %+v", dist)
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &st)
	if st.HTTPErrors != 0 {
		t.Fatalf("http_errors = %d at the end, want 0", st.HTTPErrors)
	}
}

// TestServerFailedBuildWaitIs500 is the complement of the 499 mapping: a
// BUILD failing while the client still waits is a genuine server error —
// 500, counted in http_errors, never misread as client impatience.
func TestServerFailedBuildWaitIs500(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"broken","algorithm":"ccserve-test-failing"}`, http.StatusCreated, nil)
	var errBody struct {
		Error string `json:"error"`
	}
	postJSON(t, base+"/v1/graphs/broken/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,1]]}`, http.StatusInternalServerError, &errBody)
	if !strings.Contains(errBody.Error, "synthetic build failure") {
		t.Fatalf("500 body %q does not carry the build error", errBody.Error)
	}
	var st struct {
		HTTPErrors uint64 `json:"http_errors"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &st)
	if st.HTTPErrors != 1 {
		t.Fatalf("http_errors = %d after a failed build, want 1", st.HTTPErrors)
	}
}

// TestServerBuildTimeoutWaitIs500 pins the trap the 499 fix avoids: a
// -buildtimeout abort surfaces as context.DeadlineExceeded from the BUILD,
// and with the client still connected it must be a 500, not a 499.
func TestServerBuildTimeoutWaitIs500(t *testing.T) {
	resetGate() // never released: the gated build can only end by timeout
	cfg := testConfig(defaultLimits())
	cfg.base.BuildTimeout = 50 * time.Millisecond
	base := startServer(t, cfg)
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"stuck","algorithm":"ccserve-test-gated"}`, http.StatusCreated, nil)
	var errBody struct {
		Error string `json:"error"`
	}
	postJSON(t, base+"/v1/graphs/stuck/graph?wait=1", "application/json",
		`{"n":2,"edges":[[0,1,1]]}`, http.StatusInternalServerError, &errBody)
	if !strings.Contains(errBody.Error, "deadline exceeded") {
		t.Fatalf("500 body %q does not carry the timeout", errBody.Error)
	}
}

// TestServerAuthAndQuotaEndToEnd is the acceptance criterion for the auth
// stack: with a key file loaded, unauthenticated requests get 401, another
// tenant's key gets 403, an over-quota tenant gets 429 + Retry-After while
// an under-quota tenant keeps being answered — and an evicted tenant comes
// back from disk with its quota still enforced.
func TestServerAuthAndQuotaEndToEnd(t *testing.T) {
	dir := t.TempDir()
	keysPath := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(keysPath, []byte(`{
		"admin": "root-key",
		"tenants": {
			"alpha": {"key": "alpha-key"},
			"beta":  {"key": "beta-key",
			          "quota": {"answers_per_sec": 0.001, "answer_burst": 4}}
		}
	}`), 0o600); err != nil {
		t.Fatal(err)
	}
	keys, err := loadKeyring(keysPath, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	snapshots, err := store.Open(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(defaultLimits())
	cfg.keys = keys
	cfg.snapshots = snapshots
	cfg.maxGraphs = 3 // three of {alpha, beta, delta, gamma}
	base := startServer(t, cfg)
	const js = "application/json"

	// No key, wrong key: 401 with a WWW-Authenticate challenge. /healthz
	// stays open.
	hdr := authJSON(t, http.MethodGet, base+"/v1/stats", "", "", "", http.StatusUnauthorized, nil)
	if hdr.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate")
	}
	authJSON(t, http.MethodGet, base+"/v1/stats", "wrong-key", "", "", http.StatusUnauthorized, nil)
	authJSON(t, http.MethodGet, base+"/v1/graphs/alpha/dist?u=0&v=1", "", "", "", http.StatusUnauthorized, nil)
	getJSON(t, base+"/healthz", http.StatusOK, nil)

	// Tenant keys cannot create tenants; the admin can. beta's quota comes
	// from the key file, delta's key and quota from the create body.
	authJSON(t, http.MethodPost, base+"/v1/graphs", "alpha-key", js,
		`{"name":"alpha"}`, http.StatusForbidden, nil)
	authJSON(t, http.MethodPost, base+"/v1/graphs", "root-key", js,
		`{"name":"alpha","algorithm":"ccserve-test-exact"}`, http.StatusCreated, nil)
	authJSON(t, http.MethodPost, base+"/v1/graphs", "root-key", js,
		`{"name":"beta","algorithm":"ccserve-test-exact"}`, http.StatusCreated, nil)
	authJSON(t, http.MethodPost, base+"/v1/graphs", "root-key", js,
		`{"name":"delta","key":"delta-key","quota":{"requests_per_sec":0.001,"request_burst":1}}`,
		http.StatusCreated, nil)
	// A key that already belongs to someone else would never resolve to the
	// new tenant — rejected up front.
	authJSON(t, http.MethodPost, base+"/v1/graphs", "root-key", js,
		`{"name":"epsilon","key":"alpha-key"}`, http.StatusBadRequest, nil)

	graph := `{"n":4,"edges":[[0,1,3],[1,2,1],[2,3,2]]}`
	authJSON(t, http.MethodPost, base+"/v1/graphs/alpha/graph?wait=1", "alpha-key", js, graph, http.StatusOK, nil)
	authJSON(t, http.MethodPost, base+"/v1/graphs/beta/graph?wait=1", "beta-key", js, graph, http.StatusOK, nil)
	authJSON(t, http.MethodPost, base+"/v1/graphs/delta/graph?wait=1", "delta-key", js, graph, http.StatusOK, nil)

	// Scoping: alpha's key touches alpha only — not beta, not the
	// admin-only surfaces.
	var dist oracle.DistResult
	authJSON(t, http.MethodGet, base+"/v1/graphs/alpha/dist?u=0&v=3", "alpha-key", "", "", http.StatusOK, &dist)
	if dist.Distance != 6 {
		t.Fatalf("alpha dist %+v", dist)
	}
	authJSON(t, http.MethodGet, base+"/v1/graphs/beta/dist?u=0&v=3", "alpha-key", "", "", http.StatusForbidden, nil)
	authJSON(t, http.MethodGet, base+"/v1/graphs", "alpha-key", "", "", http.StatusForbidden, nil)
	authJSON(t, http.MethodGet, base+"/v1/stats", "alpha-key", "", "", http.StatusForbidden, nil)
	authJSON(t, http.MethodDelete, base+"/v1/graphs/alpha", "alpha-key", "", "", http.StatusForbidden, nil)

	// The API-registered delta key works and its quota bites: burst 1, so
	// the second request is 429.
	authJSON(t, http.MethodGet, base+"/v1/graphs/delta/dist?u=0&v=3", "delta-key", "", "", http.StatusOK, nil)
	authJSON(t, http.MethodGet, base+"/v1/graphs/delta/dist?u=0&v=3", "delta-key", "", "", http.StatusTooManyRequests, nil)

	// beta's answer quota: one batch spends the whole burst of 4; sustained
	// batch traffic after it is 429 with Retry-After, while alpha's queries
	// sail through untouched.
	var batch oracle.BatchResult
	authJSON(t, http.MethodPost, base+"/v1/graphs/beta/batch", "beta-key", js,
		`{"pairs":[[0,1],[0,2],[0,3],[1,3]]}`, http.StatusOK, &batch)
	if len(batch.Answers) != 4 || batch.Answers[2].Distance != 6 {
		t.Fatalf("beta batch %+v", batch)
	}
	for i := 0; i < 3; i++ {
		hdr := authJSON(t, http.MethodPost, base+"/v1/graphs/beta/batch", "beta-key", js,
			`{"pairs":[[0,1],[0,2]]}`, http.StatusTooManyRequests, nil)
		ra, err := strconv.Atoi(hdr.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("429 Retry-After %q: %v", hdr.Get("Retry-After"), err)
		}
		authJSON(t, http.MethodGet, base+"/v1/graphs/alpha/dist?u=0&v=3", "alpha-key", "", "", http.StatusOK, &dist)
		if dist.Distance != 6 {
			t.Fatalf("alpha dist while beta throttled %+v", dist)
		}
	}

	// Throttle counters: aggregate and per tenant in /v1/stats.
	var st struct {
		Manager oracle.ManagerStats `json:"manager"`
	}
	authJSON(t, http.MethodGet, base+"/v1/stats", "root-key", "", "", http.StatusOK, &st)
	if st.Manager.Throttled < 4 { // 3 beta batches + 1 delta dist
		t.Fatalf("manager throttled = %d, want >= 4", st.Manager.Throttled)
	}
	for _, ts := range st.Manager.Tenants {
		switch ts.Name {
		case "beta":
			if ts.Throttled != 3 || ts.Quota == nil || ts.Quota.AnswerBurst != 4 {
				t.Fatalf("beta stats %+v", ts)
			}
		case "alpha":
			if ts.Throttled != 0 || ts.Quota != nil {
				t.Fatalf("alpha stats %+v", ts)
			}
		}
	}

	// Evict beta: make alpha and delta more recent than beta's last
	// successful query (throttled calls deliberately do not refresh
	// recency, so delta needs a graph upload — uploads are not metered).
	authJSON(t, http.MethodGet, base+"/v1/graphs/alpha/dist?u=0&v=3", "alpha-key", "", "", http.StatusOK, nil)
	authJSON(t, http.MethodPost, base+"/v1/graphs/delta/graph?wait=1", "delta-key", js, graph, http.StatusOK, nil)
	authJSON(t, http.MethodPost, base+"/v1/graphs", "root-key", js,
		`{"name":"gamma"}`, http.StatusCreated, nil)
	var sum tenantSummary
	authJSON(t, http.MethodGet, base+"/v1/graphs/beta", "root-key", "", "", http.StatusOK, &sum)
	if !sum.Evicted {
		t.Fatalf("beta summary after gamma created: %+v (want evicted)", sum)
	}

	// Rehydration brings beta back from disk WITH its quota: a fresh burst
	// of 4 is admitted, then 429 again.
	authJSON(t, http.MethodPost, base+"/v1/graphs/beta/batch", "beta-key", js,
		`{"pairs":[[0,1],[0,2],[0,3],[1,3]]}`, http.StatusOK, &batch)
	if batch.Answers[2].Distance != 6 {
		t.Fatalf("rehydrated beta batch %+v", batch)
	}
	hdr = authJSON(t, http.MethodPost, base+"/v1/graphs/beta/batch", "beta-key", js,
		`{"pairs":[[0,1]]}`, http.StatusTooManyRequests, nil)
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("rehydrated 429 Retry-After %q: %v", hdr.Get("Retry-After"), err)
	}

	// Deleting a tenant drops its API-registered key: delta's key becomes
	// unknown (401), not merely unscoped (403).
	authJSON(t, http.MethodDelete, base+"/v1/graphs/delta", "root-key", "", "", http.StatusOK, nil)
	authJSON(t, http.MethodGet, base+"/v1/graphs/delta/dist?u=0&v=3", "delta-key", "", "", http.StatusUnauthorized, nil)
}

// TestServerRetiredSingleGraphRoutes pins that the single-graph routes of
// earlier versions are gone, not aliased to some tenant: they name no
// tenant, so a tenant key is refused with 403 and the admin gets 404.
func TestServerRetiredSingleGraphRoutes(t *testing.T) {
	dir := t.TempDir()
	keys, err := loadKeyring(writeKeys(t, dir, `{
		"admin": "root-key",
		"tenants": {"alpha": {"key": "alpha-key"}}
	}`), testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(defaultLimits())
	cfg.keys = keys
	base := startServer(t, cfg)
	const js = "application/json"

	// alpha serves a graph, so an alias would have something to answer.
	alpha := newTenant(t, base, "root-key", "alpha")
	graph := `{"n":4,"edges":[[0,1,3],[1,2,1],[2,3,2]]}`
	authJSON(t, http.MethodPost, alpha+"/graph?wait=1", "alpha-key", js, graph, http.StatusOK, nil)

	for _, tc := range []struct {
		name, method, path, body string
	}{
		{"dist", http.MethodGet, "/v1/dist?u=0&v=3", ""},
		{"batch", http.MethodPost, "/v1/batch", `{"pairs":[[0,3]]}`},
		{"path", http.MethodGet, "/v1/path?u=0&v=3", ""},
		{"graph", http.MethodPost, "/v1/graph?wait=1", graph},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ct := ""
			if tc.body != "" {
				ct = js
			}
			authJSON(t, tc.method, base+tc.path, "alpha-key", ct, tc.body, http.StatusForbidden, nil)
			authJSON(t, tc.method, base+tc.path, "root-key", ct, tc.body, http.StatusNotFound, nil)
		})
	}

	// The refused uploads left alpha's graph as it was.
	var dist oracle.DistResult
	authJSON(t, http.MethodGet, alpha+"/dist?u=0&v=3", "alpha-key", "", "", http.StatusOK, &dist)
	if dist.Distance != 6 || dist.Version != 1 {
		t.Fatalf("alpha dist %+v, want distance 6 at version 1", dist)
	}
}
