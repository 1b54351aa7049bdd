package oracle_test

// Tenant-level quota enforcement. Rates are tiny (refill ~ milli-tokens per
// second) so the tests are deterministic on any machine: the burst is the
// whole budget for the test's duration.

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/congestedclique/cliqueapsp/oracle"
)

func TestTenantQuotaEnforced(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}})
	defer m.Close()

	limited := mustTenant(t, m, "limited", oracle.TenantConfig{
		Quota: oracle.Quota{RequestsPerSec: 0.001, RequestBurst: 2},
	})
	free := mustTenant(t, m, "free", oracle.TenantConfig{})
	g := pathGraph(t, 4, 3)
	setAndWait(t, limited, g)
	setAndWait(t, free, g)

	for i := 0; i < 2; i++ {
		if _, err := limited.Dist(0, 3); err != nil {
			t.Fatalf("Dist %d within burst: %v", i, err)
		}
	}
	_, err := limited.Dist(0, 3)
	if !errors.Is(err, oracle.ErrQuotaExceeded) {
		t.Fatalf("over-burst Dist err = %v, want ErrQuotaExceeded", err)
	}
	var qe *oracle.QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("err %v is not a *QuotaError", err)
	}
	if qe.Tenant != "limited" || qe.Resource != "requests" || qe.RetryAfter <= 0 {
		t.Fatalf("QuotaError %+v", qe)
	}
	// Path and Batch are metered by the same request bucket.
	if _, err := limited.Path(0, 3); !errors.Is(err, oracle.ErrQuotaExceeded) {
		t.Fatalf("Path err = %v, want ErrQuotaExceeded", err)
	}
	if _, err := limited.Batch([]oracle.Pair{{U: 0, V: 1}}); !errors.Is(err, oracle.ErrQuotaExceeded) {
		t.Fatalf("Batch err = %v, want ErrQuotaExceeded", err)
	}

	// The unthrottled tenant is untouched by its neighbor's rejections.
	for i := 0; i < 20; i++ {
		if _, err := free.Dist(0, 3); err != nil {
			t.Fatalf("free tenant Dist: %v", err)
		}
	}

	st := m.Stats()
	if st.Throttled != 3 {
		t.Fatalf("ManagerStats.Throttled = %d, want 3", st.Throttled)
	}
	for _, ts := range st.Tenants {
		switch ts.Name {
		case "limited":
			if ts.Throttled != 3 || ts.Quota == nil || ts.Quota.RequestBurst != 2 {
				t.Fatalf("limited tenant stats %+v", ts)
			}
			// Throttled queries never reached the oracle.
			if ts.Oracle.DistQueries != 2 {
				t.Fatalf("limited oracle counters %+v", ts.Oracle)
			}
		case "free":
			if ts.Throttled != 0 || ts.Quota != nil {
				t.Fatalf("free tenant stats %+v", ts)
			}
		}
	}
}

func TestTenantAnswerQuotaMetersBatchSize(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}})
	defer m.Close()
	tn := mustTenant(t, m, "a", oracle.TenantConfig{
		Quota: oracle.Quota{AnswersPerSec: 0.001, AnswerBurst: 4},
	})
	setAndWait(t, tn, pathGraph(t, 4, 3))

	// 3 answers fit the burst of 4; the next 2 do not — the batch's SIZE is
	// what is charged, so splitting a rejected load across batches buys
	// nothing.
	if _, err := tn.Batch([]oracle.Pair{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}); err != nil {
		t.Fatalf("batch within burst: %v", err)
	}
	var qe *oracle.QuotaError
	_, err := tn.Batch([]oracle.Pair{{U: 0, V: 1}, {U: 0, V: 2}})
	if !errors.As(err, &qe) || qe.Resource != "answers" {
		t.Fatalf("over-quota batch err = %v, want answers QuotaError", err)
	}
	// One answer token remains: a single Dist still fits, the next does not.
	if _, err := tn.Dist(0, 1); err != nil {
		t.Fatalf("Dist on the last answer token: %v", err)
	}
	if _, err := tn.Dist(0, 1); !errors.Is(err, oracle.ErrQuotaExceeded) {
		t.Fatalf("Dist past the answer budget err = %v", err)
	}
}

func TestTenantSetQuota(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}})
	defer m.Close()
	tn := mustTenant(t, m, "a", oracle.TenantConfig{})
	setAndWait(t, tn, pathGraph(t, 4, 3))

	if q := tn.Quota(); !q.IsZero() {
		t.Fatalf("fresh tenant quota %+v, want zero", q)
	}
	for i := 0; i < 10; i++ {
		if _, err := tn.Dist(0, 3); err != nil {
			t.Fatal(err)
		}
	}
	q := oracle.Quota{RequestsPerSec: 0.001, RequestBurst: 1}
	if err := m.SetQuota("a", q); err != nil {
		t.Fatal(err)
	}
	if got := tn.Quota(); got != q {
		t.Fatalf("Quota() = %+v, want %+v", got, q)
	}
	if _, err := tn.Dist(0, 3); err != nil {
		t.Fatalf("Dist within fresh burst: %v", err)
	}
	if _, err := tn.Dist(0, 3); !errors.Is(err, oracle.ErrQuotaExceeded) {
		t.Fatalf("Dist past burst err = %v", err)
	}
	// Clearing the quota reopens the tenant.
	if err := m.SetQuota("a", oracle.Quota{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tn.Dist(0, 3); err != nil {
			t.Fatalf("Dist after clearing quota: %v", err)
		}
	}
	if err := m.SetQuota("a", oracle.Quota{RequestsPerSec: -1}); err == nil {
		t.Fatal("negative quota accepted")
	}
	if _, err := m.Create("bad", oracle.TenantConfig{Quota: oracle.Quota{AnswersPerSec: -1}}); err == nil {
		t.Fatal("Create with negative quota accepted")
	}
}

// TestTenantQuotaRefundsFailedQueries pins the refund contract: the quota
// meters served answers, so failed queries — not-ready 503s during a
// build, out-of-range pairs — hand their tokens back instead of eating the
// budget.
func TestTenantQuotaRefundsFailedQueries(t *testing.T) {
	m := oracle.NewManager(oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact"}})
	defer m.Close()
	tn := mustTenant(t, m, "a", oracle.TenantConfig{
		Quota: oracle.Quota{RequestsPerSec: 0.001, RequestBurst: 1},
	})

	// Polling an unbuilt tenant reports ErrNotReady every time — never a
	// quota rejection, and never a drained bucket.
	for i := 0; i < 5; i++ {
		if _, err := tn.Dist(0, 1); !errors.Is(err, oracle.ErrNotReady) {
			t.Fatalf("Dist %d before build: %v, want ErrNotReady", i, err)
		}
	}
	setAndWait(t, tn, pathGraph(t, 4, 3))

	// An out-of-range batch fails validation and is refunded too.
	if _, err := tn.Batch([]oracle.Pair{{U: 0, V: 99}}); err == nil || errors.Is(err, oracle.ErrQuotaExceeded) {
		t.Fatalf("out-of-range batch err = %v, want a validation error", err)
	}
	// The whole burst is still there for the first real query.
	if _, err := tn.Dist(0, 3); err != nil {
		t.Fatalf("Dist after refunds: %v", err)
	}
	if _, err := tn.Dist(0, 3); !errors.Is(err, oracle.ErrQuotaExceeded) {
		t.Fatalf("second Dist err = %v, want ErrQuotaExceeded", err)
	}
}

// TestManagerSetQuota covers the reconciliation entry point: idempotent on
// hosted tenants (no burst refill when nothing changed), effective across
// eviction, and a no-op on unknown names.
func TestManagerSetQuota(t *testing.T) {
	dir := openStore(t)
	m := oracle.NewManager(oracle.ManagerConfig{
		Base:      oracle.Config{Algorithm: "test-exact"},
		MaxGraphs: 1,
		Store:     dir,
	})
	defer m.Close()

	q1 := oracle.Quota{RequestsPerSec: 0.001, RequestBurst: 1}
	a := mustTenant(t, m, "a", oracle.TenantConfig{Quota: q1})
	setAndWait(t, a, pathGraph(t, 4, 3))
	if err := m.SetQuota("a", oracle.Quota{RequestsPerSec: -1}); err == nil {
		t.Fatal("invalid quota accepted")
	}
	if err := m.SetQuota("ghost", q1); err != nil {
		t.Fatalf("SetQuota on unknown name: %v", err)
	}

	// Exhaust the burst; re-applying the SAME quota must not refill it.
	if _, err := a.Dist(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.SetQuota("a", q1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Dist(0, 3); !errors.Is(err, oracle.ErrQuotaExceeded) {
		t.Fatalf("SetQuota with an unchanged quota refilled the bucket: %v", err)
	}
	// A CHANGED quota installs fresh buckets.
	q2 := oracle.Quota{RequestsPerSec: 0.001, RequestBurst: 2}
	if err := m.SetQuota("a", q2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Dist(0, 3); err != nil {
		t.Fatalf("Dist after quota change: %v", err)
	}

	// Evict a; SetQuota during the eviction window must still land on the
	// rehydrated incarnation.
	mustTenant(t, m, "b", oracle.TenantConfig{})
	if !a.Evicted() {
		t.Fatal("a not evicted")
	}
	q3 := oracle.Quota{RequestsPerSec: 0.001, RequestBurst: 3}
	if err := m.SetQuota("a", q3); err != nil {
		t.Fatal(err)
	}
	back, err := m.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Quota(); got != q3 {
		t.Fatalf("rehydrated quota %+v, want %+v", got, q3)
	}
}

// TestTenantQuotaSurvivesEvictionAndRehydration is the durability half of
// the quota contract: an evicted tenant rehydrated from disk comes back
// with the exact quota it was last configured with (including a runtime
// SetQuota), not unlimited.
func TestTenantQuotaSurvivesEvictionAndRehydration(t *testing.T) {
	dir := openStore(t)
	m := oracle.NewManager(oracle.ManagerConfig{
		Base:      oracle.Config{Algorithm: "test-exact"},
		MaxGraphs: 1,
		Store:     dir,
	})
	defer m.Close()

	created := oracle.Quota{RequestsPerSec: 0.001, RequestBurst: 1}
	a := mustTenant(t, m, "a", oracle.TenantConfig{Quota: created})
	setAndWait(t, a, pathGraph(t, 4, 3))
	// Tighten at runtime so the survival test covers SetQuota too, not just
	// the creation-time config.
	updated := oracle.Quota{RequestsPerSec: 0.001, RequestBurst: 2, AnswersPerSec: 0.001, AnswerBurst: 2}
	if err := m.SetQuota("a", updated); err != nil {
		t.Fatal(err)
	}

	// Evict a by creating b (MaxGraphs 1).
	mustTenant(t, m, "b", oracle.TenantConfig{})
	if !a.Evicted() {
		t.Fatal("a not evicted")
	}

	// The cold hit rehydrates a from disk — with the updated quota.
	back, err := m.Get("a")
	if err != nil {
		t.Fatalf("rehydrating a: %v", err)
	}
	if got := back.Quota(); got != updated {
		t.Fatalf("rehydrated quota %+v, want %+v", got, updated)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := back.Wait(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Fresh buckets, same policy: the burst is admitted, the next is not.
	for i := 0; i < 2; i++ {
		if _, err := back.Dist(0, 3); err != nil {
			t.Fatalf("rehydrated Dist %d: %v", i, err)
		}
	}
	if _, err := back.Dist(0, 3); !errors.Is(err, oracle.ErrQuotaExceeded) {
		t.Fatalf("rehydrated tenant unthrottled: %v", err)
	}
	if st := m.Stats(); st.ColdHits != 1 || st.Throttled == 0 {
		t.Fatalf("manager stats after rehydration %+v", st)
	}
}
