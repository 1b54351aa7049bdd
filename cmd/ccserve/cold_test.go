package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
)

// pathUploadJSON renders the upload body for a path graph 0-1-…-(n-1) with
// uniform edge weight w, so expected distances are (v-u)·w.
func pathUploadJSON(n int, w int64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"n":%d,"edges":[`, n)
	for u := 0; u < n-1; u++ {
		if u > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d,%d]", u, u+1, w)
	}
	sb.WriteString("]}")
	return sb.String()
}

// TestServerColdTierAcrossRestart is the HTTP face of the tiered restart: a
// second server over the same -datadir with a node budget too small for the
// persisted fleet brings the overflow tenant up cold, reports the tier on
// /v1/graphs, /v1/graphs/{name} and /v1/stats, serves identical answers from
// disk, and — when an upload squeezes even the cold charge out — lists the
// evicted-but-persisted tenant as cold too.
func TestServerColdTierAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	open := func(maxTotalNodes, coldCacheRows int) (string, func()) {
		snapshots, err := store.Open(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(defaultLimits())
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

	// An unconstrained first server persists two 20-node tenants.
	base, stop := open(0, 0)
	postJSON(t, newTenant(t, base, "", "beta")+"/graph?wait=1", "application/json",
		pathUploadJSON(20, 2), http.StatusOK, nil)
	postJSON(t, base+"/v1/graphs", "application/json",
		`{"name":"alpha"}`, http.StatusCreated, nil)
	postJSON(t, base+"/v1/graphs/alpha/graph?wait=1", "application/json",
		pathUploadJSON(20, 3), http.StatusOK, nil)
	stop()

	// Restart under a budget of 25: restore order is alphabetical, so
	// "alpha" claims the hot headroom (20 ≤ 25) and "beta" comes back
	// cold on its 4-row cache charge — 24 total, one full decode.
	base, stop = open(25, 4)
	defer stop()

	var listing struct {
		Count  int             `json:"count"`
		Graphs []tenantSummary `json:"graphs"`
	}
	getJSON(t, base+"/v1/graphs", http.StatusOK, &listing)
	if listing.Count != 2 {
		t.Fatalf("listing %+v, want both tenants", listing)
	}
	byName := map[string]tenantSummary{}
	for _, row := range listing.Graphs {
		byName[row.Name] = row
	}
	if row := byName["alpha"]; row.Tier != "hot" || !row.Ready || row.Evicted {
		t.Fatalf("alpha listing row %+v, want a ready hot tenant", row)
	}
	if row := byName["beta"]; row.Tier != "cold" || !row.Ready || row.Evicted || row.N != 20 {
		t.Fatalf("beta listing row %+v, want a ready cold tenant", row)
	}

	var summary tenantSummary
	getJSON(t, base+"/v1/graphs/beta", http.StatusOK, &summary)
	if summary.Tier != "cold" || summary.Version != 1 || summary.N != 20 {
		t.Fatalf("cold tenant summary %+v, want cold @ v1 with n=20", summary)
	}

	// The cold tenant answers from disk with the persisted values.
	var dist oracle.DistResult
	getJSON(t, base+"/v1/graphs/beta/dist?u=0&v=19", http.StatusOK, &dist)
	if dist.Distance != 38 || dist.Version != 1 {
		t.Fatalf("cold beta Dist = %+v, want 38 @ v1", dist)
	}
	getJSON(t, base+"/v1/graphs/alpha/dist?u=0&v=19", http.StatusOK, &dist)
	if dist.Distance != 57 || dist.Version != 1 {
		t.Fatalf("hot alpha Dist = %+v, want 57 @ v1", dist)
	}

	var st struct {
		Manager oracle.ManagerStats `json:"manager"`
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &st)
	if st.Manager.ColdTenants != 1 || st.Manager.FullDecodes != 1 || st.Manager.ColdServes == 0 {
		t.Fatalf("tier stats %+v, want 1 cold tenant, 1 decode, cold serves", st.Manager)
	}
	if st.Manager.TotalNodes != 24 || st.Manager.RowCacheMisses == 0 {
		t.Fatalf("tier occupancy %+v, want 20+4 nodes and row-cache misses", st.Manager)
	}
	for _, ts := range st.Manager.Tenants {
		want := map[string]string{"alpha": "hot", "beta": "cold"}[ts.Name]
		if ts.Tier != want || ts.Oracle.Tier != want {
			t.Fatalf("tenant %q tier %q/%q, want %q", ts.Name, ts.Tier, ts.Oracle.Tier, want)
		}
	}

	// A 24-node rebuild of the cold beta needs more room than demoting
	// can free: admission evicts the idle alpha, whose persisted snapshot
	// keeps it listed — as a cold, evicted tenant.
	postJSON(t, base+"/v1/graphs/beta/graph?wait=1", "application/json",
		pathUploadJSON(24, 1), http.StatusOK, nil)
	getJSON(t, base+"/v1/graphs/beta/dist?u=0&v=23", http.StatusOK, &dist)
	if dist.Distance != 23 || dist.Version != 2 {
		t.Fatalf("rebuilt beta Dist = %+v, want 23 @ v2", dist)
	}
	getJSON(t, base+"/v1/graphs/alpha", http.StatusOK, &summary)
	if !summary.Evicted || summary.Tier != "cold" {
		t.Fatalf("evicted alpha summary %+v, want evicted + cold", summary)
	}
	getJSON(t, base+"/v1/graphs", http.StatusOK, &listing)
	byName = map[string]tenantSummary{}
	for _, row := range listing.Graphs {
		byName[row.Name] = row
	}
	if row := byName["alpha"]; !row.Evicted || row.Tier != "cold" || row.Ready {
		t.Fatalf("evicted alpha listing row %+v", row)
	}
	if row := byName["beta"]; row.Tier != "hot" || row.Version != 2 {
		t.Fatalf("rebuilt beta listing row %+v", row)
	}
	getJSON(t, base+"/v1/stats", http.StatusOK, &st)
	if st.Manager.Evictions != 1 || st.Manager.ColdTenants != 0 {
		t.Fatalf("post-eviction stats %+v", st.Manager)
	}
}
