package knearest

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/sched"
)

// One Workspace carried through Compute calls whose n, k, h and iters grow
// and then shrink must answer every call as a fresh Workspace does, with
// the same model cost, and as the reference does: reused buffers are longer
// or shorter than a call needs and hold the last call's entries. The calls
// include the broadcast fallback, and a cancelled call before the largest
// must leave the Workspace usable. The group is four workers wide, so the
// combo nodes take searchers from the shared hand-out concurrently.
func TestWorkspaceReuseMatchesFreshAndReference(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	par := pool.Group(context.Background(), 4)
	rng := rand.New(rand.NewSource(73))
	type call struct{ n, k, h, iters int }
	calls := []call{
		{40, 3, 2, 1},
		{90, 6, 2, 2},
		{160, 9, 2, 3},
		{200, 12, 2, 2},
		{120, 4, 3, 2},
		{60, 2, 5, 1}, // p < h: the broadcast fallback, as is the last call
		{150, 10, 2, 1},
		{70, 5, 2, 3},
		{30, 4, 2, 2},
		{12, 3, 2, 1},
	}
	ws := new(Workspace)
	for i, c := range calls {
		g := graph.RandomConnected(c.n, 4, graph.WeightRange{Min: 1, Max: 40}, rng).AsDirected()
		if i == 3 {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := ws.Compute(pool.Group(ctx, 4), cc.New(c.n, 1), g, c.k, c.h, c.iters)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("call %d cancelled: err = %v, want context.Canceled", i, err)
			}
		}
		reusedClq, freshClq := cc.New(c.n, 1), cc.New(c.n, 1)
		reused, err := ws.Compute(par, reusedClq, g, c.k, c.h, c.iters)
		if err != nil {
			t.Fatalf("call %d %+v: %v", i, c, err)
		}
		fresh, err := Compute(par, freshClq, g, c.k, c.h, c.iters)
		if err != nil {
			t.Fatalf("call %d %+v: %v", i, c, err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("call %d %+v: the reused workspace's lists differ from a fresh one's", i, c)
		}
		if rm, fm := reusedClq.Metrics(), freshClq.Metrics(); !reflect.DeepEqual(rm, fm) {
			t.Fatalf("call %d %+v: model cost %+v, fresh %+v", i, c, rm, fm)
		}
		assertMatchesReference(t, g, reused, reused.K, reused.Hops)
	}
}
