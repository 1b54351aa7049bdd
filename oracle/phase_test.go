package oracle_test

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/congestedclique/cliqueapsp/oracle"
)

// TestBuildPhaseTimings drives a build through an algorithm with a known
// minimum runtime and checks that the phase breakdown lands in
// Stats().LastBuildPhases, with durations that account for the work
// actually done.
func TestBuildPhaseTimings(t *testing.T) {
	o := oracle.New(oracle.Config{Algorithm: "test-slow"})
	defer o.Close()

	v, err := o.SetGraph(pathGraph(t, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)

	st := o.Stats()
	if len(st.LastBuildPhases) == 0 {
		t.Fatal("Stats().LastBuildPhases empty after a build")
	}
	// The registry fires a checkpoint named after the algorithm before
	// invoking its runner, so the run's 30ms sleep is attributed to the
	// "test-slow" phase.
	var slow *oracle.PhaseTiming
	var total time.Duration
	for i := range st.LastBuildPhases {
		p := &st.LastBuildPhases[i]
		if p.Duration < 0 {
			t.Fatalf("negative phase duration: %+v", *p)
		}
		total += p.Duration
		if p.Phase == "test-slow" {
			slow = p
		}
	}
	if slow == nil {
		t.Fatalf("no test-slow phase in %+v", st.LastBuildPhases)
	}
	if slow.Duration < 25*time.Millisecond {
		t.Fatalf("test-slow phase %v, want >= ~30ms", slow.Duration)
	}
	if total > st.LastRebuild+50*time.Millisecond {
		t.Fatalf("phase total %v exceeds build time %v", total, st.LastRebuild)
	}
}

// TestManagerOnPhaseTagsTenant checks the Manager-level hook fires with the
// tenant name, that per-tenant breakdowns stay separate, and that by the
// time Wait returns each tenant's OnPhase calls equal, in order and
// duration, the Stats().LastBuildPhases of the build they report.
func TestManagerOnPhaseTagsTenant(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]oracle.PhaseTiming{}
	m := oracle.NewManager(oracle.ManagerConfig{
		Base: oracle.Config{Algorithm: "test-exact"},
		OnPhase: func(name, phase string, d time.Duration) {
			mu.Lock()
			seen[name] = append(seen[name], oracle.PhaseTiming{Phase: phase, Duration: d})
			mu.Unlock()
		},
	})
	defer m.Close()

	a := mustTenant(t, m, "a", oracle.TenantConfig{})
	b := mustTenant(t, m, "b", oracle.TenantConfig{Algorithm: "test-slow"})
	setAndWait(t, a, pathGraph(t, 4, 1))
	setAndWait(t, b, pathGraph(t, 4, 1))

	mu.Lock()
	defer mu.Unlock()
	for _, c := range []struct {
		tn    *oracle.Tenant
		first string
	}{{a, "test-exact"}, {b, "test-slow"}} {
		got, want := seen[c.tn.Name()], c.tn.Stats().Oracle.LastBuildPhases
		if len(want) == 0 || want[0].Phase != c.first {
			t.Fatalf("tenant %s phases = %+v, want %s first", c.tn.Name(), want, c.first)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("tenant %s: OnPhase saw %+v, stats carry %+v", c.tn.Name(), got, want)
		}
	}
}

// TestFailedBuildReportsPhases: phases completed before a failure still
// reach OnPhase by the time Wait returns the error, but never Stats (no
// snapshot was published), on a standalone Oracle as under a Manager.
func TestFailedBuildReportsPhases(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const timeout = 5 * time.Millisecond // well under test-slow's 30ms sleep

	o := oracle.New(oracle.Config{Algorithm: "test-slow", BuildTimeout: timeout})
	defer o.Close()
	v, err := o.SetGraph(pathGraph(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Wait(ctx, v); err == nil {
		t.Fatal("build should have timed out")
	}
	if st := o.Stats(); len(st.LastBuildPhases) != 0 {
		t.Fatalf("no snapshot published, but LastBuildPhases = %+v", st.LastBuildPhases)
	}

	var mu sync.Mutex
	var phases []string
	m := oracle.NewManager(oracle.ManagerConfig{
		Base: oracle.Config{Algorithm: "test-slow", BuildTimeout: timeout},
		OnPhase: func(name, phase string, d time.Duration) {
			mu.Lock()
			phases = append(phases, phase)
			mu.Unlock()
		},
	})
	defer m.Close()
	tn := mustTenant(t, m, "failing", oracle.TenantConfig{})
	if v, err = tn.SetGraph(pathGraph(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tn.Wait(ctx, v); err == nil {
		t.Fatal("tenant build should have timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(phases, "test-slow") {
		t.Fatalf("failed build reported phases %v, want test-slow present", phases)
	}
	if st := tn.Stats(); len(st.Oracle.LastBuildPhases) != 0 {
		t.Fatalf("no snapshot published, but tenant LastBuildPhases = %+v", st.Oracle.LastBuildPhases)
	}
}
