package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/congestedclique/cliqueapsp/store"
)

// traceTreeBody mirrors the /v1/traces/{id} response for test decoding.
type traceTreeBody struct {
	ID      string          `json:"id"`
	Dropped int             `json:"dropped"`
	Spans   []traceTreeNode `json:"spans"`
}

type traceTreeNode struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id"`
	Name     string `json:"name"`
	Status   int    `json:"status"`
	Error    string `json:"error"`
	Attrs    []struct {
		Key   string `json:"key"`
		Value string `json:"value"`
	} `json:"attrs"`
	Events []struct {
		Name string `json:"name"`
	} `json:"events"`
	Children []traceTreeNode `json:"children"`
}

// flatten walks the tree depth-first so assertions can search by name
// without caring about nesting depth.
func flatten(nodes []traceTreeNode) []traceTreeNode {
	var out []traceTreeNode
	for _, n := range nodes {
		out = append(out, n)
		out = append(out, flatten(n.Children)...)
	}
	return out
}

func findSpan(nodes []traceTreeNode, name string) (traceTreeNode, bool) {
	for _, n := range flatten(nodes) {
		if n.Name == name {
			return n, true
		}
	}
	return traceTreeNode{}, false
}

func hasEvent(n traceTreeNode, name string) bool {
	for _, e := range n.Events {
		if e.Name == name {
			return true
		}
	}
	return false
}

func attr(n traceTreeNode, key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

type traceListBody struct {
	Count    int `json:"count"`
	Capacity int `json:"capacity"`
	Traces   []struct {
		ID     string `json:"id"`
		Name   string `json:"name"`
		Tenant string `json:"tenant"`
		Status int    `json:"status"`
		Spans  int    `json:"spans"`
	} `json:"traces"`
}

// TestServerTraceEndToEnd exercises the sampled happy path: with
// -tracesample 1 a dist query returns a traceparent header whose trace is
// retrievable from /v1/traces/{id} as a handler→oracle span tree, builds
// leave gate-wait + per-phase traces, and the listing summarizes both.
func TestServerTraceEndToEnd(t *testing.T) {
	cfg := testConfig(defaultLimits())
	cfg.traceSample = 1
	base := startServer(t, cfg)

	g := newTenant(t, base, "", "g")
	postJSON(t, g+"/graph?wait=1", "application/json",
		pathUploadJSON(8, 3), http.StatusOK, nil)

	resp, err := http.Get(g + "/dist?u=0&v=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist: status %d", resp.StatusCode)
	}
	tp := resp.Header.Get("traceparent")
	if tp == "" {
		t.Fatal("sampled response carries no traceparent header")
	}
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || parts[3] != "01" {
		t.Fatalf("malformed response traceparent %q", tp)
	}
	traceID := parts[1]

	var tree traceTreeBody
	getJSON(t, base+"/v1/traces/"+traceID, http.StatusOK, &tree)
	if tree.ID != traceID {
		t.Fatalf("trace id = %q, want %q", tree.ID, traceID)
	}
	root, ok := findSpan(tree.Spans, "GET /v1/graphs/{name}/dist")
	if !ok {
		t.Fatalf("no handler root span in %+v", tree.Spans)
	}
	if root.Status != http.StatusOK {
		t.Fatalf("root status = %d, want 200", root.Status)
	}
	if attr(root, "request_id") == "" {
		t.Fatal("root span has no request_id attr")
	}
	dist, ok := findSpan(tree.Spans, "oracle.dist")
	if !ok {
		t.Fatal("no oracle.dist child span")
	}
	if attr(dist, "u") != "0" || attr(dist, "v") != "3" {
		t.Fatalf("oracle.dist attrs = %v, want u=0 v=3", dist.Attrs)
	}

	// The ?wait=1 rebuild above always traces: its root carries the
	// gate-wait child plus one span per engine phase.
	var list traceListBody
	getJSON(t, base+"/v1/traces?limit=50", http.StatusOK, &list)
	var buildID string
	for _, tr := range list.Traces {
		if tr.Name == "oracle.build" {
			buildID = tr.ID
		}
	}
	if buildID == "" {
		t.Fatalf("no oracle.build trace in listing: %+v", list.Traces)
	}
	getJSON(t, base+"/v1/traces/"+buildID, http.StatusOK, &tree)
	if _, ok := findSpan(tree.Spans, "build.gate_wait"); !ok {
		t.Fatal("build trace has no build.gate_wait span")
	}
	var phases int
	for _, n := range flatten(tree.Spans) {
		if strings.HasPrefix(n.Name, "phase.") {
			phases++
		}
	}
	if phases == 0 {
		t.Fatal("build trace has no phase.* spans")
	}
}

// TestServerTraceColdTierSpans restarts a persisted fleet under a node
// budget that forces the restored tenant cold, then asserts a traced dist
// query shows the disk tier at work: a tier.row span with a row_cache.miss
// event and a tier.pread child on the first read, a row_cache.hit event on
// the second.
func TestServerTraceColdTierSpans(t *testing.T) {
	dataDir := t.TempDir()

	snapshots, err := store.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(defaultLimits())
	cfg.snapshots = snapshots
	base := startServer(t, cfg)
	postJSON(t, newTenant(t, base, "", "beta")+"/graph?wait=1", "application/json",
		pathUploadJSON(16, 2), http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"alpha"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/alpha/graph?wait=1", "application/json",
		pathUploadJSON(16, 5), http.StatusOK, nil)

	// Second server over the same datadir: budget fits one hot tenant, so
	// one of {alpha, beta} restores cold.
	snapshots2, err := store.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(defaultLimits())
	cfg2.snapshots = snapshots2
	cfg2.maxTotalNodes = 16
	cfg2.coldCacheRows = 4
	cfg2.traceSample = 1
	base2 := startServer(t, cfg2)

	var graphs struct {
		Graphs []struct {
			Name string `json:"name"`
			Tier string `json:"tier"`
		} `json:"graphs"`
	}
	getJSON(t, base2+"/v1/graphs", http.StatusOK, &graphs)
	coldName := ""
	for _, g := range graphs.Graphs {
		if g.Tier == "cold" {
			coldName = g.Name
		}
	}
	if coldName == "" {
		t.Fatalf("no cold tenant after constrained restart: %+v", graphs.Graphs)
	}
	distURL := base2 + "/v1/graphs/" + coldName + "/dist?u=0&v=5"

	query := func() traceTreeBody {
		resp, err := http.Get(distURL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold dist: status %d", resp.StatusCode)
		}
		id := strings.Split(resp.Header.Get("traceparent"), "-")[1]
		var tree traceTreeBody
		getJSON(t, base2+"/v1/traces/"+id, http.StatusOK, &tree)
		return tree
	}

	tree := query()
	row, ok := findSpan(tree.Spans, "tier.row")
	if !ok {
		t.Fatalf("cold dist trace has no tier.row span: %+v", tree.Spans)
	}
	if !hasEvent(row, "row_cache.miss") {
		t.Fatalf("first cold read should miss the row cache, events = %+v", row.Events)
	}
	if _, ok := findSpan(tree.Spans, "tier.pread"); !ok {
		t.Fatal("row-cache miss produced no tier.pread span")
	}

	tree = query()
	row, ok = findSpan(tree.Spans, "tier.row")
	if !ok {
		t.Fatal("second cold dist trace has no tier.row span")
	}
	if !hasEvent(row, "row_cache.hit") {
		t.Fatalf("second cold read should hit the row cache, events = %+v", row.Events)
	}
}

// TestServerTraceForcedCapture runs unsampled (-tracesample 0) with a 1ns
// slow-query threshold: every request is "slow", so each gets a synthesized
// root-only trace even though nothing was sampled — and the response
// carries no traceparent (the request itself ran untraced).
func TestServerTraceForcedCapture(t *testing.T) {
	cfg := testConfig(defaultLimits())
	cfg.slowQuery = time.Nanosecond
	base := startServer(t, cfg)

	g := newTenant(t, base, "", "g")
	postJSON(t, g+"/graph?wait=1", "application/json",
		pathUploadJSON(8, 3), http.StatusOK, nil)

	// A 32-lowercase-hex X-Request-Id doubles as the forced trace's ID, so
	// the captured trace is addressable without scraping the listing.
	const reqID = "c0ffee00c0ffee00c0ffee00c0ffee00"
	req, err := http.NewRequest(http.MethodGet, g+"/dist?u=0&v=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist: status %d", resp.StatusCode)
	}
	if tp := resp.Header.Get("traceparent"); tp != "" {
		t.Fatalf("unsampled response carries traceparent %q", tp)
	}

	var tree traceTreeBody
	getJSON(t, base+"/v1/traces/"+reqID, http.StatusOK, &tree)
	root, ok := findSpan(tree.Spans, "GET /v1/graphs/{name}/dist")
	if !ok {
		t.Fatalf("forced capture missing handler root: %+v", tree.Spans)
	}
	if attr(root, "sampling") != "forced" {
		t.Fatalf("forced root attrs = %+v, want sampling=forced", root.Attrs)
	}
	if attr(root, "request_id") != reqID {
		t.Fatalf("forced root request_id = %q, want %q", attr(root, "request_id"), reqID)
	}
}

// TestServerTraceparentPropagation sends a sampled W3C traceparent on an
// otherwise-unsampled server: the parent forces tracing, the server joins
// the caller's trace (same trace ID, fresh span ID, parent recorded), and
// the response echoes a valid traceparent.
func TestServerTraceparentPropagation(t *testing.T) {
	cfg := testConfig(defaultLimits())
	base := startServer(t, cfg)

	g := newTenant(t, base, "", "g")
	postJSON(t, g+"/graph?wait=1", "application/json",
		pathUploadJSON(8, 3), http.StatusOK, nil)

	const parentTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const parentSpan = "00f067aa0ba902b7"
	req, err := http.NewRequest(http.MethodGet, g+"/dist?u=0&v=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+parentTrace+"-"+parentSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist: status %d", resp.StatusCode)
	}
	parts := strings.Split(resp.Header.Get("traceparent"), "-")
	if len(parts) != 4 || parts[1] != parentTrace {
		t.Fatalf("response traceparent %q does not join trace %s",
			resp.Header.Get("traceparent"), parentTrace)
	}
	if parts[2] == parentSpan {
		t.Fatal("server reused the caller's span ID instead of minting its own")
	}

	var tree traceTreeBody
	getJSON(t, base+"/v1/traces/"+parentTrace, http.StatusOK, &tree)
	root, ok := findSpan(tree.Spans, "GET /v1/graphs/{name}/dist")
	if !ok {
		t.Fatalf("joined trace missing handler root: %+v", tree.Spans)
	}
	if attr(root, "w3c.parent_id") != parentSpan {
		t.Fatalf("root w3c.parent_id = %q, want %q", attr(root, "w3c.parent_id"), parentSpan)
	}
}

// TestServerHostileTraceparent throws malformed, oversized, and
// byte-mangled traceparent headers at an unsampled server: none may error
// the request, force sampling, or mint a trace-store entry.
func TestServerHostileTraceparent(t *testing.T) {
	cfg := testConfig(defaultLimits())
	base := startServer(t, cfg)

	g := newTenant(t, base, "", "g")
	postJSON(t, g+"/graph?wait=1", "application/json",
		pathUploadJSON(8, 3), http.StatusOK, nil)

	hostile := []string{
		"",
		"00",
		"00-",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",   // short flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-", // trailing junk on v00
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",  // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-aaaaaaaa-01",          // short span id
		"00 4bf92f3577b34da6a3ce929d0e0e4736 00f067aa0ba902b7 01",  // spaces for dashes
		"00-" + strings.Repeat("a", 300) + "-00f067aa0ba902b7-01",  // oversized
		strings.Repeat("00-4bf92f3577b34da6a3ce929d0e0e4736-", 20), // repeated segments
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
	}
	for i, tp := range hostile {
		req, err := http.NewRequest(http.MethodGet, g+"/dist?u=0&v=3", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tp != "" {
			// Set directly on the map: http.Header.Set would reject some of
			// these bytes client-side before the server ever sees them.
			req.Header["Traceparent"] = []string{tp}
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("hostile %d: transport error: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hostile traceparent %d %q: status %d", i, tp, resp.StatusCode)
		}
		if echo := resp.Header.Get("traceparent"); echo != "" {
			t.Fatalf("hostile traceparent %d %q forced sampling: response carries %q", i, tp, echo)
		}
	}

	var list traceListBody
	getJSON(t, base+"/v1/traces", http.StatusOK, &list)
	for _, tr := range list.Traces {
		if strings.HasPrefix(tr.Name, "GET ") {
			t.Fatalf("hostile header minted a request trace: %+v", tr)
		}
	}
}

// TestServerTraceRoutesAuth pins the admin scoping of the trace surface:
// under -keys, /v1/traces and /v1/traces/{id} answer only the admin key —
// no key is 401, a tenant key is 403.
func TestServerTraceRoutesAuth(t *testing.T) {
	dir := t.TempDir()
	keysPath := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(keysPath, []byte(`{
		"admin": "root-key",
		"tenants": {"alpha": {"key": "alpha-key"}}
	}`), 0o600); err != nil {
		t.Fatal(err)
	}
	keys, err := loadKeyring(keysPath, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(defaultLimits())
	cfg.keys = keys
	cfg.traceSample = 1
	base := startServer(t, cfg)

	const someID = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, url := range []string{base + "/v1/traces", base + "/v1/traces/" + someID} {
		authJSON(t, http.MethodGet, url, "", "", "", http.StatusUnauthorized, nil)
		authJSON(t, http.MethodGet, url, "alpha-key", "", "", http.StatusForbidden, nil)
	}
	authJSON(t, http.MethodGet, base+"/v1/traces", "root-key", "", "", http.StatusOK, nil)
	// The admin reaches the by-ID route too; 404 because nothing with that
	// ID is retained, which is an authorized answer, not a gate.
	authJSON(t, http.MethodGet, base+"/v1/traces/"+someID, "root-key", "", "", http.StatusNotFound, nil)
	authJSON(t, http.MethodGet, base+"/v1/traces/not-hex", "root-key", "", "", http.StatusBadRequest, nil)
}

// TestServerTraceListLimit checks the listing's limit plumbing and its
// rejection of non-positive values.
func TestServerTraceListLimit(t *testing.T) {
	cfg := testConfig(defaultLimits())
	cfg.traceSample = 1
	base := startServer(t, cfg)

	g := newTenant(t, base, "", "g")
	postJSON(t, g+"/graph?wait=1", "application/json",
		pathUploadJSON(8, 3), http.StatusOK, nil)
	for i := 0; i < 5; i++ {
		getJSON(t, fmt.Sprintf("%s/dist?u=0&v=%d", g, i), http.StatusOK, nil)
	}

	var list traceListBody
	getJSON(t, base+"/v1/traces?limit=2", http.StatusOK, &list)
	if list.Count != 2 || len(list.Traces) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(list.Traces))
	}
	getJSON(t, base+"/v1/traces?limit=0", http.StatusBadRequest, nil)
	getJSON(t, base+"/v1/traces?limit=-3", http.StatusBadRequest, nil)
	getJSON(t, base+"/v1/traces?limit=x", http.StatusBadRequest, nil)
}
