package oracle_test

import (
	"context"
	"testing"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
)

// hookEvent is one ManagerConfig.OnRebuild or OnRepair call.
type hookEvent struct {
	kind, tenant string
	version      uint64
	failed       bool
}

// recordBuildHooks installs OnRebuild and OnRepair on cfg, feeding every
// call into the returned channel.
func recordBuildHooks(cfg *oracle.ManagerConfig) chan hookEvent {
	events := make(chan hookEvent, 16)
	cfg.OnRebuild = func(name string, v uint64, d time.Duration, err error) {
		events <- hookEvent{"rebuild", name, v, err != nil}
	}
	cfg.OnRepair = func(name string, v uint64, d time.Duration) {
		events <- hookEvent{"repair", name, v, false}
	}
	return events
}

// expectRan asserts that want is the next hook event WITHOUT waiting for
// it: the caller has just returned from Tenant.Wait, and the hooks for that
// version must have run by then.
func expectRan(t *testing.T, events chan hookEvent, want hookEvent) {
	t.Helper()
	select {
	case got := <-events:
		if got != want {
			t.Fatalf("hook event %+v, want %+v", got, want)
		}
	default:
		t.Fatalf("Wait returned before the %s hook for %s v%d ran", want.kind, want.tenant, want.version)
	}
}

// applyAndWait applies a one-edge reweight to tn and waits for its publish.
func applyAndWait(t *testing.T, tn *oracle.Tenant, u, v int, w int64) uint64 {
	t.Helper()
	ver, err := tn.ApplyDelta(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: u, V: v, W: w},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tn.Wait(ctx, ver); err != nil {
		t.Fatalf("Wait(%s, %d): %v", tn.Name(), ver, err)
	}
	return ver
}

// hookManager returns a Manager, bounding each build by buildTimeout (0 =
// no limit), whose OnRebuild and OnRepair calls feed the returned channel,
// and checks at cleanup that no hook event went unread.
func hookManager(t *testing.T, buildTimeout time.Duration) (*oracle.Manager, chan hookEvent) {
	t.Helper()
	cfg := oracle.ManagerConfig{Base: oracle.Config{Algorithm: "test-exact", RepairMaxDirtyFrac: 1, BuildTimeout: buildTimeout}}
	events := recordBuildHooks(&cfg)
	m := oracle.NewManager(cfg)
	t.Cleanup(func() {
		m.Close()
		select {
		case e := <-events:
			t.Errorf("unexpected extra hook event %+v", e)
		default:
		}
	})
	return m, events
}

// TestManagerHooksRunBeforeWaitReturns pins the order callers that read a
// hook's effects right after Wait rely on: once Tenant.Wait(v) returns,
// OnRebuild or OnRepair for v has already run, exactly once, tagged with
// the tenant — for a successful build, a repair, a delta that fell back to
// a rebuild, and a failed build.
func TestManagerHooksRunBeforeWaitReturns(t *testing.T) {
	t.Run("build", func(t *testing.T) {
		// A successful engine build reports through OnRebuild.
		m, events := hookManager(t, 0)
		exact := mustTenant(t, m, "exact", oracle.TenantConfig{})
		v := setAndWait(t, exact, pathGraph(t, 4, 2))
		expectRan(t, events, hookEvent{"rebuild", "exact", v, false})
	})

	t.Run("repair", func(t *testing.T) {
		// A small delta on an exact snapshot repairs, reporting through
		// OnRepair and not OnRebuild.
		m, events := hookManager(t, 0)
		exact := mustTenant(t, m, "exact", oracle.TenantConfig{})
		v := setAndWait(t, exact, pathGraph(t, 4, 2))
		expectRan(t, events, hookEvent{"rebuild", "exact", v, false})
		v = applyAndWait(t, exact, 2, 3, 9)
		expectRan(t, events, hookEvent{"repair", "exact", v, false})
		if st := exact.Stats(); st.Oracle.Repairs != 1 || st.Oracle.Rebuilds != 1 {
			t.Fatalf("exact tenant repairs=%d rebuilds=%d, want 1/1", st.Oracle.Repairs, st.Oracle.Rebuilds)
		}
	})

	t.Run("repair-fallback", func(t *testing.T) {
		// A weight increase on an approximate snapshot cannot be repaired:
		// the fallback is a full engine build and reports through OnRebuild.
		m, events := hookManager(t, 0)
		approx := mustTenant(t, m, "approx", oracle.TenantConfig{Algorithm: "test-approx"})
		v := setAndWait(t, approx, pathGraph(t, 4, 2))
		expectRan(t, events, hookEvent{"rebuild", "approx", v, false})
		v = applyAndWait(t, approx, 0, 1, 9)
		expectRan(t, events, hookEvent{"rebuild", "approx", v, false})
		if st := approx.Stats(); st.Oracle.RepairFallbacks != 1 || st.Oracle.Repairs != 0 {
			t.Fatalf("approx tenant fallbacks=%d repairs=%d, want 1/0", st.Oracle.RepairFallbacks, st.Oracle.Repairs)
		}
	})

	t.Run("failed-build", func(t *testing.T) {
		// A timed-out build reports its error through OnRebuild before Wait
		// returns that error.
		m, events := hookManager(t, 5*time.Millisecond) // well under test-slow's 30ms sleep
		slow := mustTenant(t, m, "slow", oracle.TenantConfig{Algorithm: "test-slow"})
		v, err := slow.SetGraph(pathGraph(t, 4, 1))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := slow.Wait(ctx, v); err == nil {
			t.Fatal("build should have timed out")
		}
		expectRan(t, events, hookEvent{"rebuild", "slow", v, true})
	})
}
