package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
)

// serveEps mirrors ccserve's default -eps, which every tenant created
// without its own eps builds with; the in-process oracle must match it to
// reproduce the served matrices.
const serveEps = 0.1

// newOracle returns an in-process oracle configured as ccserve configures
// a tenant created with this algorithm and pinned seed.
func newOracle(alg string, seed int64) *oracle.Oracle {
	return oracle.New(oracle.Config{
		Algorithm: cliqueapsp.Algorithm(alg),
		Eps:       serveEps,
		RunOptions: []cliqueapsp.RunOption{
			cliqueapsp.WithT(1),
			cliqueapsp.WithDeterministicRun(false),
			cliqueapsp.WithSeed(seed),
		},
	})
}

// truth reproduces in-process what the server should serve in each state:
// the graph and the oracle answering over it. States only move forward for
// a delta stream; an upload state rebuilds from its graph.
type truth struct {
	w     workload
	in    inputs
	o     *oracle.Oracle
	g     *cliqueapsp.Graph
	state int
	exact map[int][]int64 // Dijkstra rows of the current state, by source
}

func (t *truth) close() {
	if t.o != nil {
		t.o.Close()
	}
}

func (t *truth) at(state int) error {
	if t.o != nil && state == t.state {
		return nil
	}
	ctx := context.Background()
	if t.o == nil || !t.w.patches || state < t.state {
		t.close()
		gi := state
		if t.w.patches {
			gi = 0
		}
		t.o, t.g, t.state = newOracle(t.w.alg, t.in.tenantSeed), t.in.graphs[gi], 0
		if !t.w.patches {
			t.state = state
		}
		v, err := t.o.SetGraph(t.g)
		if err != nil {
			return err
		}
		if err := t.o.Wait(ctx, v); err != nil {
			return err
		}
	}
	for t.state < state {
		d := cliqueapsp.GraphDelta{Edges: t.in.deltas[t.state : t.state+1]}
		v, err := t.o.ApplyDelta(d)
		if err != nil {
			return err
		}
		if err := t.o.Wait(ctx, v); err != nil {
			return err
		}
		if t.g, err = t.g.Apply(d); err != nil {
			return err
		}
		t.state++
	}
	t.exact = map[int][]int64{}
	return nil
}

func (t *truth) exactDist(u, v int) (int64, error) {
	row := t.exact[u]
	if row == nil {
		var err error
		if row, err = cliqueapsp.SSSP(t.g, u); err != nil {
			return 0, err
		}
		t.exact[u] = row
	}
	return row[v], nil
}

// checkExact compares a served distance with Dijkstra on the state's graph
// when the tenant's estimate is exact.
func (t *truth) checkExact(a oracle.Answer, bound float64) error {
	if bound > 1 {
		return nil
	}
	d, err := t.exactDist(a.U, a.V)
	if err != nil {
		return err
	}
	if reach := d < cliqueapsp.Inf; reach != a.Reachable || (reach && d != a.Distance) {
		return fmt.Errorf("(%d,%d): served %d, Dijkstra %d", a.U, a.V, a.Distance, d)
	}
	return nil
}

// checkBody compares one served answer with the in-process oracle's answer
// for the same state, and validates what can be validated independently:
// exact distances against Dijkstra, paths as walks in the graph.
func (t *truth) checkBody(o op, body []byte) error {
	bound := t.o.Stats().FactorBound
	switch o.kind {
	case opDist:
		var got oracle.DistResult
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := t.o.Dist(o.pairs[0].U, o.pairs[0].V)
		if err != nil {
			return err
		}
		if got.Answer != want.Answer {
			return fmt.Errorf("dist %+v, in-process %+v", got.Answer, want.Answer)
		}
		return t.checkExact(got.Answer, bound)
	case opBatch:
		var got oracle.BatchResult
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := t.o.Batch(o.pairs)
		if err != nil {
			return err
		}
		if len(got.Answers) != len(want.Answers) {
			return fmt.Errorf("batch of %d answered with %d", len(want.Answers), len(got.Answers))
		}
		for i := range got.Answers {
			if got.Answers[i] != want.Answers[i] {
				return fmt.Errorf("batch[%d] %+v, in-process %+v", i, got.Answers[i], want.Answers[i])
			}
		}
		return t.checkExact(got.Answers[0], bound)
	default:
		want, err := t.o.Path(o.pairs[0].U, o.pairs[0].V)
		if errors.Is(err, cliqueapsp.ErrNoRoute) {
			return sameNoRoute(body, err)
		}
		if err != nil {
			return err
		}
		var got oracle.PathResult
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Reachable != want.Reachable || got.Cost != want.Cost || !equalInts(got.Path, want.Path) {
			return fmt.Errorf("path %v cost %d, in-process %v cost %d", got.Path, got.Cost, want.Path, want.Cost)
		}
		return t.checkWalk(got)
	}
}

// sameNoRoute checks that a served no-route answer gives the same reason
// as the in-process oracle, whose own message names its own version.
func sameNoRoute(body []byte, want error) error {
	var got struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("in-process: %v; served %.200s", want, body)
	}
	reason := func(msg string) string {
		if i := strings.Index(msg, noRouteMsg); i >= 0 {
			return msg[i:]
		}
		return msg
	}
	if reason(got.Error) != reason(want.Error()) {
		return fmt.Errorf("served %q, in-process %q", got.Error, want.Error())
	}
	return nil
}

// checkWalk verifies that a reachable path starts and ends at its pair,
// follows graph edges, and costs the sum of their weights.
func (t *truth) checkWalk(p oracle.PathResult) error {
	if !p.Reachable {
		return nil
	}
	if len(p.Path) == 0 || p.Path[0] != p.U || p.Path[len(p.Path)-1] != p.V {
		return fmt.Errorf("path %v does not join %d and %d", p.Path, p.U, p.V)
	}
	var cost int64
	for i := 1; i < len(p.Path); i++ {
		w, ok := t.g.Weight(p.Path[i-1], p.Path[i])
		if !ok {
			return fmt.Errorf("path %v uses missing edge {%d,%d}", p.Path, p.Path[i-1], p.Path[i])
		}
		cost += w
	}
	if cost != p.Cost {
		return fmt.Errorf("path %v costs %d, served cost %d", p.Path, cost, p.Cost)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// check verifies every distinct answer served in the window, then the
// stretch probe, and records stretch_mean. A wrong answer fails every op
// that returned it.
func (b *bench) check() error {
	t := &truth{w: b.w, in: b.in}
	defer t.close()
	keys := make([]bodyKey, 0, len(b.rd.bodies))
	for k := range b.rd.bodies {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].version != keys[j].version {
			return keys[i].version < keys[j].version
		}
		return keys[i].op < keys[j].op
	})
	for _, k := range keys {
		sb := b.rd.bodies[k]
		o := b.in.ops[k.op]
		state, ok := b.states[k.version]
		if !ok {
			b.rep.fail(o.kind.String(), sb.count, fmt.Errorf("answered by v%d, which no write published", k.version))
			continue
		}
		if err := t.at(state); err != nil {
			return fmt.Errorf("reproducing state %d in-process: %w", state, err)
		}
		if err := t.checkBody(o, sb.body); err != nil {
			b.rep.fail(o.kind.String(), sb.count, fmt.Errorf("v%d op %d: %w", k.version, k.op, err))
		}
	}
	return b.checkStretch(t)
}

// checkStretch checks the stretch probe — a batch over fixed sampled pairs
// on the set-up version — against the in-process answer and Dijkstra, and
// records the mean served/exact ratio. Every ratio must lie within the
// snapshot's proven factor bound.
func (b *bench) checkStretch(t *truth) error {
	if b.stretch == nil {
		return nil
	}
	state, ok := b.states[b.stretchV]
	if !ok {
		b.rep.fail("probe", 1, fmt.Errorf("probe answered by v%d, which no write published", b.stretchV))
		return nil
	}
	if err := t.at(state); err != nil {
		return fmt.Errorf("reproducing state %d in-process: %w", state, err)
	}
	probe := batchOp(b.in.stretch)
	if err := t.checkBody(probe, b.stretch); err != nil {
		b.rep.fail("probe", 1, err)
		return nil
	}
	var got oracle.BatchResult
	if err := json.Unmarshal(b.stretch, &got); err != nil {
		return err
	}
	bound := t.o.Stats().FactorBound
	sum, cnt := 0.0, 0
	for _, a := range got.Answers {
		d, err := t.exactDist(a.U, a.V)
		if err != nil {
			return err
		}
		if d >= cliqueapsp.Inf || d == 0 {
			if a.Reachable != (d < cliqueapsp.Inf) {
				b.rep.fail("probe", 1, fmt.Errorf("(%d,%d) reachability differs from Dijkstra", a.U, a.V))
			}
			continue
		}
		r := float64(a.Distance) / float64(d)
		if !a.Reachable || r < 1 || r > bound+1e-9 {
			b.rep.fail("probe", 1, fmt.Errorf("(%d,%d): served %d, exact %d, outside [1, %g]", a.U, a.V, a.Distance, d, bound))
		}
		sum += r
		cnt++
	}
	if cnt == 0 {
		return fmt.Errorf("stretch probe: no reachable sampled pair")
	}
	b.rep.metrics["stretch_mean"] = sum / float64(cnt)
	b.rep.info["stretch_pairs"] = cnt
	b.rep.info["factor_bound"] = bound
	return nil
}
