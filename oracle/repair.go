package oracle

import (
	"fmt"
	"sort"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

// Incremental distance repair.
//
// A small edge delta rarely changes many distances: the pairs it affects are
// exactly those whose shortest paths cross a changed edge, and every such
// path passes through one of the delta's endpoints. The repair path exploits
// that to publish a successor snapshot without an engine run:
//
//  1. Classify each distinct touched pair by comparing the base graph's
//     weight with the new graph's (a coalesced trail can add, reweight and
//     remove the same edge; only the net change matters).
//  2. Pick a source set S: every touched endpoint, plus — for weight
//     increases and removals on an exact matrix — every source whose current
//     row provably routed through a changed edge at its old weight (the old
//     row may now be too small). Run one exact Dijkstra per source in S on
//     the new graph and write its row and symmetric column.
//  3. Combine: for every remaining pair, D'(u,v) = min(D(u,v),
//     min over touched t of d(u,t)+d(t,v)). Decreases only ever open new
//     paths through touched endpoints, and step 2's rows made every d(·,t)
//     exact, so this closes the matrix.
//
// On an exact base matrix the result is bit-identical to a from-scratch
// exact rebuild of the patched graph. On an approximate matrix the combine
// step only lowers estimates — never below the true distance — so the factor
// bound is preserved for decreases; increases and removals there fall back
// to a full rebuild (the old estimate may be invalid and there is no local
// way to tell for which pairs).

// repairPlan is a decided incremental repair: the hot base snapshot the
// distances patch, its estimate widened to the full matrix the repair
// rewrites in place, the distinct endpoints of all net-effective changes,
// and the full Dijkstra source set (touched ∪ increase-dirty sources).
type repairPlan struct {
	base    *snapshot
	d       *cliqueapsp.DistanceMatrix // unpublished: repair's to write
	touched map[int]bool
	dirty   []int // sorted; superset of touched
}

// planRepair decides whether the pending unit can publish through the repair
// path, returning nil for a full rebuild. A nil return for a unit that
// carried deltas counts as a repair fallback; a unit without deltas (a fresh
// upload) is a plain rebuild, not a fallback.
func (o *Oracle) planRepair(w *pendingWork) *repairPlan {
	if w.deltas == nil {
		return nil
	}
	frac := o.cfg.RepairMaxDirtyFrac
	if frac == 0 {
		frac = defaultRepairMaxDirtyFrac
	}
	fallback := func() *repairPlan {
		o.cnt.repairFallbacks.Add(1)
		return nil
	}
	if frac < 0 {
		return fallback()
	}
	base := o.cur.Load()
	// Repair patches a widened copy of the serving estimate, so it needs a
	// hot, resident base that is exactly the version the deltas extend.
	if base == nil || base.version != w.baseV {
		return fallback()
	}
	hot, ok := base.src.(*resident)
	if !ok {
		return fallback()
	}

	// Net-effective classification: the trail may touch the same pair many
	// times; only base-weight vs new-weight matters.
	n := base.n
	type pkey struct{ u, v int }
	seen := make(map[pkey]bool, len(w.deltas))
	type change struct {
		u, v int
		wOld int64
	}
	var increases []change
	touched := make(map[int]bool)
	for _, e := range w.deltas {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		k := pkey{u, v}
		if seen[k] {
			continue
		}
		seen[k] = true
		wOld, okOld := hot.g.Weight(u, v)
		wNew, okNew := w.g.Weight(u, v)
		if okOld == okNew && wOld == wNew {
			continue // the trail cancelled out for this pair
		}
		touched[u], touched[v] = true, true
		if okOld && (!okNew || wNew > wOld) {
			increases = append(increases, change{u, v, wOld})
		}
	}

	exact := base.res.FactorBound <= 1
	if !exact && len(increases) > 0 {
		return fallback()
	}
	maxDirty := frac * float64(n)
	if float64(len(touched)) > maxDirty {
		return fallback()
	}

	// Past the cheap fallbacks, widen the packed base once: the increase
	// test reads it, and the repair patches it.
	D := hot.widen()
	dirtySet := make(map[int]bool, len(touched))
	for t := range touched {
		dirtySet[t] = true
	}
	// A source u is invalidated by an increased/removed edge (x,y) iff some
	// current estimate D(u,v) is realized through that edge at its old
	// weight — then row u may be too small after the change and must be
	// recomputed from scratch. The test is exact-matrix arithmetic, which
	// the approximate guard above already ensured.
	for _, ch := range increases {
		rowX, rowY := D.Row(ch.u), D.Row(ch.v)
		for u := 0; u < n; u++ {
			if dirtySet[u] {
				continue
			}
			rowU := D.Row(u)
			dux, duy := rowU[ch.u], rowU[ch.v]
			if dux >= cliqueapsp.Inf && duy >= cliqueapsp.Inf {
				continue
			}
			for v := 0; v < n; v++ {
				duv := rowU[v]
				if duv >= cliqueapsp.Inf {
					continue
				}
				if dux < cliqueapsp.Inf && rowY[v] < cliqueapsp.Inf && dux+ch.wOld+rowY[v] == duv {
					dirtySet[u] = true
					break
				}
				if duy < cliqueapsp.Inf && rowX[v] < cliqueapsp.Inf && duy+ch.wOld+rowX[v] == duv {
					dirtySet[u] = true
					break
				}
			}
		}
		if float64(len(dirtySet)) > maxDirty {
			return fallback()
		}
	}

	dirty := make([]int, 0, len(dirtySet))
	for u := range dirtySet {
		dirty = append(dirty, u)
	}
	sort.Ints(dirty)
	return &repairPlan{base: base, d: D, touched: touched, dirty: dirty}
}

// repair executes a decided plan: rewrite the dirty sources' rows and
// columns of the plan's widened base from exact Dijkstras on the new graph,
// close the rest through the touched endpoints, and pack the result as a
// snapshot, returning the full matrix for persist. The patch keeps the
// matrix symmetric: each dirty row is also written as its column, and the
// combine step gives (u,v) and (v,u) the same candidates. It cannot fail:
// every input was validated when the plan was made (the impossible errors
// below panic, like the other unreachable paths in this package).
func (o *Oracle) repair(w *pendingWork, plan *repairPlan) (*snapshot, *cliqueapsp.DistanceMatrix, []PhaseTiming) {
	base := plan.base
	n := base.n
	var phases []PhaseTiming

	ssspStart := time.Now()
	// Writes to newD are safe without synchronization: the matrix is
	// unpublished until the snapshot stores.
	newD := plan.d
	for _, s := range plan.dirty {
		row, err := cliqueapsp.SSSP(w.g, s)
		if err != nil {
			panic(fmt.Sprintf("oracle: repair sssp from %d: %v", s, err))
		}
		copy(newD.Row(s), row)
		for v := 0; v < n; v++ {
			newD.Row(v)[s] = row[v]
		}
	}
	phases = append(phases, PhaseTiming{Phase: "repair/sssp", Duration: time.Since(ssspStart)})

	combineStart := time.Now()
	if len(plan.touched) > 0 {
		ts := make([]int, 0, len(plan.touched))
		for t := range plan.touched {
			ts = append(ts, t)
		}
		sort.Ints(ts)
		trows := make([][]int64, len(ts))
		for i, t := range ts {
			trows[i] = newD.Row(t) // exact: every touched endpoint is dirty
		}
		isDirty := make([]bool, n)
		for _, s := range plan.dirty {
			isDirty[s] = true
		}
		for u := 0; u < n; u++ {
			if isDirty[u] {
				continue // already an exact row
			}
			du := newD.Row(u)
			for i, t := range ts {
				dut := du[t]
				if dut >= cliqueapsp.Inf {
					continue
				}
				tr := trows[i]
				for v := 0; v < n; v++ {
					if tv := tr[v]; tv < cliqueapsp.Inf && dut+tv < du[v] {
						du[v] = dut + tv
					}
				}
			}
		}
	}
	phases = append(phases, PhaseTiming{Phase: "repair/combine", Duration: time.Since(combineStart)})

	// The repaired result inherits the base's provenance (algorithm, factor
	// bound, seed, cost counters): it descends from that build, and the
	// repair arguments above guarantee the bound still holds.
	res := *base.res
	res.Distances = newD
	snap, err := newSnapshot(w.v, w.g, &res)
	if err != nil {
		panic(fmt.Sprintf("oracle: packing the repaired estimate: %v", err))
	}
	return snap, newD, phases
}
