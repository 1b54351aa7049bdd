package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
)

// patchConfig is testConfig with the repair threshold opened wide so every
// valid delta takes the incremental path — the tests here assert repair vs
// rebuild counters exactly.
func patchConfig(lim limits) serverConfig {
	cfg := testConfig(lim)
	cfg.base.RepairMaxDirtyFrac = 1
	return cfg
}

// TestServerPatchEdges drives the whole incremental-update surface on one
// tenant: a PATCH publishes a repaired snapshot, answers move, the repair
// shows up in the tenant stats (typed and under its JSON names) and the
// /metrics exposition.
func TestServerPatchEdges(t *testing.T) {
	base := startServer(t, patchConfig(defaultLimits()))
	const js = "application/json"
	g := newTenant(t, base, "", "g")

	// Path 0-1-2-3-4-5 with weight 2: d(0,5) = 10 at v1.
	postJSON(t, g+"/graph?wait=1", js, pathUploadJSON(6, 2), http.StatusOK, nil)

	var dist oracle.DistResult
	getJSON(t, g+"/dist?u=0&v=5", http.StatusOK, &dist)
	if dist.Distance != 10 || dist.Version != 1 {
		t.Fatalf("pre-patch dist %+v, want 10 @ v1", dist)
	}

	// Reweight one edge with ?wait=1: the response is the ready repaired
	// version, not an accepted-pending 202.
	var patched struct {
		Version uint64 `json:"version"`
		Edges   int    `json:"edges"`
		Ready   bool   `json:"ready"`
	}
	doBody := func(method, url, body string, wantStatus int, out any) {
		t.Helper()
		resp := doAuth(t, method, url, "", js, body)
		decodeBody(t, resp, wantStatus, out)
	}
	doBody(http.MethodPatch, g+"/edges?wait=1",
		`{"edges":[{"op":"reweight","u":0,"v":1,"w":7}]}`, http.StatusOK, &patched)
	if patched.Version != 2 || patched.Edges != 1 || !patched.Ready {
		t.Fatalf("patch response %+v, want ready v2 with 1 edge", patched)
	}
	getJSON(t, g+"/dist?u=0&v=5", http.StatusOK, &dist)
	if dist.Distance != 15 || dist.Version != 2 {
		t.Fatalf("post-patch dist %+v, want 15 @ v2", dist)
	}

	// A mixed add+remove batch: the shortcut wins, the removed edge is gone.
	doBody(http.MethodPatch, g+"/edges?wait=1",
		`{"edges":[{"op":"add","u":0,"v":5,"w":1},{"op":"remove","u":4,"v":5}]}`,
		http.StatusOK, &patched)
	if patched.Version != 3 || patched.Edges != 2 {
		t.Fatalf("second patch response %+v, want v3 with 2 edges", patched)
	}
	getJSON(t, g+"/dist?u=0&v=5", http.StatusOK, &dist)
	if dist.Distance != 1 {
		t.Fatalf("post-add dist %+v, want the 1-weight shortcut", dist)
	}
	// With {4,5} gone, 4 reaches 5 only the long way round: 4-3-2-1 costs
	// 6, 1-0 the reweighted 7, 0-5 the new shortcut 1 ⇒ 14.
	getJSON(t, g+"/dist?u=4&v=5", http.StatusOK, &dist)
	if dist.Distance != 14 {
		t.Fatalf("post-remove dist %+v, want 14 via the shortcut", dist)
	}

	// Tenant stats: one upload rebuild, two repairs, no fallbacks.
	var ts oracle.TenantStats
	getJSON(t, g+"/stats", http.StatusOK, &ts)
	if ts.Oracle.Rebuilds != 1 || ts.Oracle.Repairs != 2 || ts.Oracle.RepairFallbacks != 0 {
		t.Fatalf("tenant stats rebuilds=%d repairs=%d fallbacks=%d, want 1/2/0",
			ts.Oracle.Rebuilds, ts.Oracle.Repairs, ts.Oracle.RepairFallbacks)
	}

	// The tenant's stats carry the new counters under their documented
	// JSON names.
	var named struct {
		Oracle struct {
			Repairs         *uint64 `json:"repairs"`
			RepairFallbacks *uint64 `json:"repair_fallbacks"`
			CoalescedDeltas *uint64 `json:"coalesced_deltas"`
		} `json:"oracle"`
	}
	getJSON(t, g+"/stats", http.StatusOK, &named)
	flat := named.Oracle
	if flat.Repairs == nil || flat.RepairFallbacks == nil || flat.CoalescedDeltas == nil {
		t.Fatalf("tenant stats missing repair fields: %+v", flat)
	}
	if *flat.Repairs != 2 || *flat.RepairFallbacks != 0 {
		t.Fatalf("tenant stats repairs=%d fallbacks=%d, want 2/0", *flat.Repairs, *flat.RepairFallbacks)
	}

	// The fleet metric counted both repaired publishes.
	text := scrape(t, base, "")
	if v := metricValue(t, text, `ccserve_repairs_total{result="ok"}`); v != 2 {
		t.Fatalf("ccserve_repairs_total ok = %v, want 2", v)
	}
}

// TestServerPatchEdgesErrors: every rejection class of the PATCH route and
// its status code.
func TestServerPatchEdgesErrors(t *testing.T) {
	base := startServer(t, patchConfig(defaultLimits()))
	const js = "application/json"
	g := newTenant(t, base, "", "g")
	patch := func(url, body string, wantStatus int) errorBody {
		t.Helper()
		var eb errorBody
		resp := doAuth(t, http.MethodPatch, url, "", js, body)
		decodeBody(t, resp, wantStatus, &eb)
		return eb
	}

	// No base graph yet: a delta has nothing to patch — 409, not 400.
	patch(g+"/edges", `{"edges":[{"op":"add","u":0,"v":1,"w":1}]}`,
		http.StatusConflict)

	postJSON(t, g+"/graph?wait=1", js, pathUploadJSON(4, 2), http.StatusOK, nil)

	// Invalid deltas are 400s naming the offending index.
	if eb := patch(g+"/edges",
		`{"edges":[{"op":"reweight","u":0,"v":1,"w":5},{"op":"add","u":2,"v":2,"w":1}]}`,
		http.StatusBadRequest); !strings.Contains(eb.Error, "delta 1") ||
		!strings.Contains(eb.Error, "self loop") {
		t.Fatalf("self-loop delta error %q, want the index and cause named", eb.Error)
	}
	if eb := patch(g+"/edges",
		`{"edges":[{"op":"add","u":0,"v":1,"w":1}]}`,
		http.StatusBadRequest); !strings.Contains(eb.Error, "already exists") {
		t.Fatalf("duplicate-add error %q", eb.Error)
	}
	// A rejected delta publishes nothing: the graph still serves v1
	// unchanged (the valid reweight at index 0 must not have leaked).
	var dist oracle.DistResult
	getJSON(t, g+"/dist?u=0&v=1", http.StatusOK, &dist)
	if dist.Distance != 2 || dist.Version != 1 {
		t.Fatalf("dist after rejected deltas %+v, want untouched 2 @ v1", dist)
	}

	// Body shape errors.
	patch(g+"/edges", `{"edges":[]}`, http.StatusBadRequest)
	patch(g+"/edges", `{"edges":`, http.StatusBadRequest)
	patch(g+"/edges", `{"deltas":[{"op":"add"}]}`, http.StatusBadRequest)

	// Wrong method and unknown tenant.
	doJSON(t, http.MethodGet, g+"/edges", http.StatusMethodNotAllowed, nil)
	patch(base+"/v1/graphs/nope/edges", `{"edges":[{"op":"add","u":0,"v":1,"w":1}]}`,
		http.StatusNotFound)
}

// TestServerUploadRejectsSelfLoops: both upload formats refuse self loops
// with a 400 naming the offending edge, instead of feeding them to a build
// that would panic or normalize them away.
func TestServerUploadRejectsSelfLoops(t *testing.T) {
	base := startServer(t, testConfig(defaultLimits()))
	g := newTenant(t, base, "", "g")

	var eb errorBody
	postJSON(t, g+"/graph", "application/json",
		`{"n":3,"edges":[[0,1,1],[2,2,5]]}`, http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, "edge 1") || !strings.Contains(eb.Error, "self loop") {
		t.Fatalf("JSON self-loop error %q, want edge 1 named", eb.Error)
	}

	postJSON(t, g+"/graph", "text/plain",
		"p 3 2\ne 0 1 4\ne 2 2 5\n", http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, "self loop") {
		t.Fatalf("edge-list self-loop error %q", eb.Error)
	}

	// Valid uploads still pass after the rejections.
	postJSON(t, g+"/graph?wait=1", "application/json",
		`{"n":3,"edges":[[0,1,1],[1,2,5]]}`, http.StatusOK, nil)
}

// TestServerPromote: POST /v1/graphs/{name}/promote swaps a cold tenant
// back to hot serving, is idempotent on an already-hot tenant, and 404s on
// unknown names. The cold tenant comes from a restart under a node budget
// too small for the persisted fleet — the same setup as the cold-tier test.
func TestServerPromote(t *testing.T) {
	dataDir := t.TempDir()
	openAt := func(maxTotalNodes, coldCacheRows int) (string, func()) {
		snapshots, err := store.Open(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := patchConfig(defaultLimits())
		cfg.snapshots = snapshots
		cfg.maxTotalNodes = maxTotalNodes
		cfg.coldCacheRows = coldCacheRows
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
			http.DefaultClient.CloseIdleConnections()
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

	base, stop := openAt(0, 0)
	postJSON(t, newTenant(t, base, "", "beta")+"/graph?wait=1", "application/json",
		pathUploadJSON(20, 2), http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs", "application/json", `{"name":"alpha"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/alpha/graph?wait=1", "application/json",
		pathUploadJSON(20, 3), http.StatusOK, nil)
	stop()

	// Budget 25, cache 4 rows: alphabetical restore brings "alpha" up hot
	// (20) and "beta" cold (4).
	base, stop = openAt(25, 4)
	defer stop()

	var summary tenantSummary
	getJSON(t, base+"/v1/graphs/beta", http.StatusOK, &summary)
	if summary.Tier != "cold" {
		t.Fatalf("beta tier %q before promote, want cold", summary.Tier)
	}

	// Promote swaps the tiers: beta earns its matrix back, alpha drops
	// to the cold cache charge to fit the budget.
	postJSON(t, base+"/v1/graphs/beta/promote", "application/json", "", http.StatusOK, &summary)
	if summary.Tier != "hot" || summary.Name != "beta" {
		t.Fatalf("promote response %+v, want hot beta", summary)
	}
	getJSON(t, base+"/v1/graphs/alpha", http.StatusOK, &summary)
	if summary.Tier != "cold" {
		t.Fatalf("alpha tier %q after swap, want cold", summary.Tier)
	}

	// The promoted tenant serves full-matrix answers.
	var dist oracle.DistResult
	getJSON(t, base+"/v1/graphs/beta/dist?u=0&v=19", http.StatusOK, &dist)
	if dist.Distance != 38 {
		t.Fatalf("promoted beta dist %+v, want 38", dist)
	}

	// Idempotent: promoting a hot tenant is a 200 no-op.
	postJSON(t, base+"/v1/graphs/beta/promote", "application/json", "", http.StatusOK, &summary)
	if summary.Tier != "hot" {
		t.Fatalf("re-promote response %+v, want hot", summary)
	}

	// Unknown tenant and wrong method.
	postJSON(t, base+"/v1/graphs/nope/promote", "application/json", "", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/graphs/beta/promote", http.StatusMethodNotAllowed, nil)
}

// TestServerPatchAuth: with -keys, a tenant key may PATCH its own edges but
// not promote (admin-only — promotion spends the fleet's memory budget),
// and anonymous PATCHes are 401.
func TestServerPatchAuth(t *testing.T) {
	dir := t.TempDir()
	keysPath := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(keysPath,
		[]byte(`{"admin":"root-key","tenants":{"alpha":{"key":"alpha-key"}}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	keys, err := loadKeyring(keysPath, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := patchConfig(defaultLimits())
	cfg.keys = keys
	base := startServer(t, cfg)
	const js = "application/json"

	authJSON(t, http.MethodPost, base+"/v1/graphs", "root-key", js,
		`{"name":"alpha","algorithm":"ccserve-test-exact"}`, http.StatusCreated, nil)
	authJSON(t, http.MethodPost, base+"/v1/graphs/alpha/graph?wait=1", "alpha-key", js,
		pathUploadJSON(4, 2), http.StatusOK, nil)

	// alpha's key patches alpha; nobody patches anonymously; alpha cannot
	// patch outside its scope.
	var patched struct {
		Version uint64 `json:"version"`
	}
	authJSON(t, http.MethodPatch, base+"/v1/graphs/alpha/edges?wait=1", "alpha-key", js,
		`{"edges":[{"op":"reweight","u":0,"v":1,"w":9}]}`, http.StatusOK, &patched)
	if patched.Version != 2 {
		t.Fatalf("authed patch version %d, want 2", patched.Version)
	}
	authJSON(t, http.MethodPatch, base+"/v1/graphs/alpha/edges", "", js,
		`{"edges":[{"op":"reweight","u":0,"v":1,"w":3}]}`, http.StatusUnauthorized, nil)
	authJSON(t, http.MethodPatch, base+"/v1/graphs/beta/edges", "alpha-key", js,
		`{"edges":[{"op":"reweight","u":0,"v":1,"w":3}]}`, http.StatusForbidden, nil)

	// Promote is an admin surface even for the tenant's own key.
	authJSON(t, http.MethodPost, base+"/v1/graphs/alpha/promote", "alpha-key", js, "",
		http.StatusForbidden, nil)
	authJSON(t, http.MethodPost, base+"/v1/graphs/alpha/promote", "root-key", js, "",
		http.StatusOK, nil)
}

// TestServerConcurrentPatchAndQueries hammers one tenant with sequential
// waited PATCHes while readers query over HTTP: every answer must be
// consistent with the version the response reports (weight of {0,1} is
// 100+version by construction). Run under -race this also exercises the
// repair path against the serving path.
func TestServerConcurrentPatchAndQueries(t *testing.T) {
	base := startServer(t, patchConfig(defaultLimits()))
	const js = "application/json"
	g := newTenant(t, base, "", "g")

	// Star-free path graph: 0's only neighbor is 1, so d(0,1) is exactly
	// the patched edge weight at every version.
	var sb strings.Builder
	sb.WriteString(`{"n":8,"edges":[[0,1,101]`)
	for u := 1; u < 7; u++ {
		fmt.Fprintf(&sb, ",[%d,%d,1]", u, u+1)
	}
	sb.WriteString("]}")
	postJSON(t, g+"/graph?wait=1", js, sb.String(), http.StatusOK, nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp := doAuth(t, http.MethodGet, g+"/dist?u=0&v=1", "", "", "")
				var dist oracle.DistResult
				decodeBody(t, resp, http.StatusOK, &dist)
				if dist.Distance != int64(100+dist.Version) {
					t.Errorf("d(0,1) = %d at v%d, want %d", dist.Distance, dist.Version, 100+dist.Version)
					return
				}
				var batch oracle.BatchResult
				resp = doAuth(t, http.MethodPost, g+"/batch", "", js, `{"pairs":[[0,1],[0,2]]}`)
				decodeBody(t, resp, http.StatusOK, &batch)
				if batch.Answers[0].Distance != int64(100+batch.Version) {
					t.Errorf("batch d(0,1) = %d at v%d", batch.Answers[0].Distance, batch.Version)
					return
				}
			}
		}()
	}

	for k := uint64(2); k <= 13; k++ {
		var patched struct {
			Version uint64 `json:"version"`
		}
		resp := doAuth(t, http.MethodPatch, g+"/edges?wait=1", "", js,
			fmt.Sprintf(`{"edges":[{"op":"reweight","u":0,"v":1,"w":%d}]}`, 100+k))
		decodeBody(t, resp, http.StatusOK, &patched)
		if patched.Version != k {
			t.Fatalf("patch %d published v%d", k, patched.Version)
		}
	}
	close(done)
	wg.Wait()

	var ts oracle.TenantStats
	getJSON(t, g+"/stats", http.StatusOK, &ts)
	if ts.Oracle.Repairs != 12 || ts.Oracle.Rebuilds != 1 {
		t.Fatalf("repairs=%d rebuilds=%d after 12 patches, want 12/1",
			ts.Oracle.Repairs, ts.Oracle.Rebuilds)
	}
}
