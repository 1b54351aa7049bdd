// Package cc implements the Congested Clique execution model (paper §2):
// n nodes on a fully connected network exchanging O(log n)-bit messages in
// synchronous rounds, with the Congested-Clique[B] bandwidth generalization.
//
// Two engines share one accounting core:
//
//   - Clique: a superstep engine. Algorithms move real data between per-node
//     states through audited primitives (Route, RouteDuplicable, Broadcast…)
//     whose round charges follow the cited routing theorems (Lenzen's
//     routing, Lemma 2.1; the CFG+20 redundancy routing, Lemma 2.2). Every
//     primitive measures the true per-node send/receive loads and records
//     budget violations, so "this phase uses O(n) words per node" is checked,
//     not assumed.
//
//   - LiveEngine: a goroutine-per-node engine where every node runs its own
//     program and rounds are synchronized by a barrier. It demonstrates the
//     natural mapping of the model onto Go and cross-validates the superstep
//     engine in tests.
//
// Subclique and Parallel lift each child phase into the parent phase of the
// same name, so a nested pipeline's phases read in the parent unprefixed.
//
// One Word models one O(log n)-bit machine word; the standard model is
// bandwidth 1 word per ordered pair per round, and Congested-Clique[log^c n]
// corresponds to bandwidth log^{c-1} n words.
package cc

import "fmt"

// Word is one O(log n)-bit message word.
type Word = int64

// Message is a point-to-point message carrying whole words.
type Message struct {
	From, To int
	Payload  []Word
}

// words returns the bandwidth occupancy of the message (at least one word —
// even an empty message occupies a slot).
func (m Message) words() int64 {
	if len(m.Payload) == 0 {
		return 1
	}
	return int64(len(m.Payload))
}

// PhaseStat aggregates accounting for one named algorithm phase.
type PhaseStat struct {
	Name     string
	Rounds   int64
	Messages int64
	Words    int64
	MaxSend  int64 // largest per-node send volume (words) of any op in the phase
	MaxRecv  int64 // largest per-node receive volume (words) of any op in the phase
}

// Metrics is the accounting summary of a Clique run.
type Metrics struct {
	Rounds     int64
	Messages   int64
	Words      int64
	Phases     []PhaseStat
	Violations []string // budget violations recorded by audited primitives
}

// PhaseByName returns the stats of the named phase, if present.
func (m Metrics) PhaseByName(name string) (PhaseStat, bool) {
	for _, p := range m.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStat{}, false
}

// Clique is the superstep Congested Clique engine. The zero value is not
// usable; construct with New.
type Clique struct {
	n       int
	bw      int
	metrics Metrics
	phase   int // index into metrics.Phases; -1 before the first Phase call
}

// New returns a Clique engine for n nodes with the given per-pair bandwidth
// in words per round (1 = the standard model).
func New(n, bandwidthWords int) *Clique {
	if n <= 0 {
		panic(fmt.Sprintf("cc: invalid node count %d", n))
	}
	if bandwidthWords <= 0 {
		panic(fmt.Sprintf("cc: invalid bandwidth %d", bandwidthWords))
	}
	c := &Clique{n: n, bw: bandwidthWords, phase: -1}
	c.Phase("init")
	return c
}

// N returns the number of nodes.
func (c *Clique) N() int { return c.n }

// Bandwidth returns the per-pair bandwidth in words per round.
func (c *Clique) Bandwidth() int { return c.bw }

// capacity is the per-node per-round send (and receive) capacity in words.
func (c *Clique) capacity() int64 { return int64(c.n) * int64(c.bw) }

// Phase switches the accounting phase; subsequent charges accumulate under
// name. Re-entering an existing phase name resumes its accumulation.
func (c *Clique) Phase(name string) {
	for i := range c.metrics.Phases {
		if c.metrics.Phases[i].Name == name {
			c.phase = i
			return
		}
	}
	c.metrics.Phases = append(c.metrics.Phases, PhaseStat{Name: name})
	c.phase = len(c.metrics.Phases) - 1
}

// Metrics returns a copy of the accumulated metrics.
func (c *Clique) Metrics() Metrics {
	m := c.metrics
	m.Phases = append([]PhaseStat(nil), c.metrics.Phases...)
	m.Violations = append([]string(nil), c.metrics.Violations...)
	return m
}

// ChargeRounds records r rounds against the current phase. It is used for
// results invoked as black boxes with a documented round cost (for example
// the O(1)-round MST of [Now21] inside Theorem 2.1, or the CDKL21 sparse
// matrix products whose cost formula lives in package minplus).
func (c *Clique) ChargeRounds(r int64) {
	if r < 0 {
		panic(fmt.Sprintf("cc: negative round charge %d", r))
	}
	c.metrics.Rounds += r
	c.metrics.Phases[c.phase].Rounds += r
}

func (c *Clique) chargeTraffic(messages, words int64) {
	c.metrics.Messages += messages
	c.metrics.Words += words
	p := &c.metrics.Phases[c.phase]
	p.Messages += messages
	p.Words += words
}

func (c *Clique) recordLoads(maxSend, maxRecv int64) {
	p := &c.metrics.Phases[c.phase]
	if maxSend > p.MaxSend {
		p.MaxSend = maxSend
	}
	if maxRecv > p.MaxRecv {
		p.MaxRecv = maxRecv
	}
}

// Violate records a model-constraint violation. Tests treat a non-empty
// violation list as failure.
func (c *Clique) Violate(format string, args ...interface{}) {
	c.metrics.Violations = append(c.metrics.Violations, fmt.Sprintf(format, args...))
}

// RouteOpts configures an audited routing operation.
type RouteOpts struct {
	// Duplicable selects the CFG+20 routing lemma (paper Lemma 2.2): the
	// round charge depends only on the receive load, because senders whose
	// outgoing traffic is determined by O(n log n) bits of local state can
	// offload duplication to helper nodes. When false, Lenzen's routing
	// (Lemma 2.1) is modelled and both directions are charged.
	Duplicable bool
	// RecvBudget, if positive, is the declared per-node receive budget in
	// words; exceeding it records a violation. Algorithms declare their
	// "each node receives O(n) words" obligations through this.
	RecvBudget int64
	// SendBudget is the analogous per-node send budget (ignored when
	// Duplicable is set).
	SendBudget int64
	// Note identifies the operation in violation messages.
	Note string
	// Into, if non-nil, holds the memory Route builds the inboxes in, so a
	// caller that routes repeatedly allocates them about once. The inboxes
	// of the last Route given the same Into are overwritten. Nil means
	// fresh memory.
	Into *Mailboxes
}

// Mailboxes is reusable memory for Route's inboxes and its counting
// scratch. The zero value is ready to use; it serves one Route at a time.
type Mailboxes struct {
	inbox   [][]Message
	backing []Message
	order   []int32
	loads   []int64 // send loads, then receive loads
	counts  []int   // receive counts, then sender offsets
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Route delivers the messages and returns each node's inbox (indexed by
// destination, ordered by sender and then by position in msgs). Rounds are
// charged from the true maximum per-node send and receive volumes:
//
//	Lenzen (Lemma 2.1):  ⌈maxSend/(n·bw)⌉ + ⌈maxRecv/(n·bw)⌉ rounds
//	CFG+20 (Lemma 2.2):  1 + ⌈maxRecv/(n·bw)⌉ rounds
//
// These are the information-theoretic terms that the cited algorithms match
// up to constant factors; with O(n)-word loads both formulas give O(1).
func (c *Clique) Route(msgs []Message, opts RouteOpts) [][]Message {
	mb := opts.Into
	if mb == nil {
		mb = new(Mailboxes)
	}
	mb.loads = resize(mb.loads, 2*c.n)
	sendLoad, recvLoad := mb.loads[:c.n], mb.loads[c.n:]
	clear(mb.loads)
	var totalWords, networkMsgs int64
	for _, m := range msgs {
		if m.From < 0 || m.From >= c.n || m.To < 0 || m.To >= c.n {
			panic(fmt.Sprintf("cc: message endpoint out of range: %d->%d", m.From, m.To))
		}
		if m.From == m.To {
			continue // local delivery is free in the model
		}
		w := m.words()
		sendLoad[m.From] += w
		recvLoad[m.To] += w
		totalWords += w
		networkMsgs++
	}
	c.chargeRoute(maxOf(sendLoad), maxOf(recvLoad), networkMsgs, totalWords, opts)

	// Inboxes share one backing array, each sized by a counting pass, and
	// are filled in stable sender order: a counting sort by From.
	mb.counts = resize(mb.counts, 2*c.n+1)
	clear(mb.counts)
	counts := mb.counts[:c.n]
	senders := mb.counts[c.n:] // counts by From, then offsets into order
	for _, m := range msgs {
		counts[m.To]++
		senders[m.From+1]++
	}
	backing := resize(mb.backing, len(msgs))
	inbox := resize(mb.inbox, c.n)
	mb.backing, mb.inbox = backing, inbox
	off := 0
	for v, cnt := range counts {
		inbox[v] = nil
		if cnt > 0 {
			inbox[v] = backing[off : off : off+cnt]
			off += cnt
		}
	}
	for v := 1; v <= c.n; v++ {
		senders[v] += senders[v-1]
	}
	order := resize(mb.order, len(msgs))
	mb.order = order
	for i, m := range msgs {
		order[senders[m.From]] = int32(i)
		senders[m.From]++
	}
	for _, i := range order {
		m := msgs[i]
		inbox[m.To] = append(inbox[m.To], m)
	}
	return inbox
}

// AllToAll charges exactly what Route charges for n·(n−1) data-free
// messages of w ≥ 1 words each, one from every node to every other node,
// without materialising them: every node sends and receives (n−1)·w words.
// Protocols use it for announcements whose content the simulation already
// holds, such as one membership word per node pair.
func (c *Clique) AllToAll(w int64, opts RouteOpts) {
	if w < 1 {
		panic(fmt.Sprintf("cc: invalid all-to-all message size %d", w))
	}
	n := int64(c.n)
	load := (n - 1) * w
	c.chargeRoute(load, load, n*(n-1), n*(n-1)*w, opts)
}

// chargeRoute records the loads, budget violations, rounds and traffic of
// one routing operation from its per-node maxima and network totals.
func (c *Clique) chargeRoute(maxSend, maxRecv, networkMsgs, totalWords int64, opts RouteOpts) {
	c.recordLoads(maxSend, maxRecv)
	if opts.RecvBudget > 0 && maxRecv > opts.RecvBudget {
		c.Violate("route %q: receive load %d exceeds budget %d", opts.Note, maxRecv, opts.RecvBudget)
	}
	if !opts.Duplicable && opts.SendBudget > 0 && maxSend > opts.SendBudget {
		c.Violate("route %q: send load %d exceeds budget %d", opts.Note, maxSend, opts.SendBudget)
	}

	var rounds int64
	if networkMsgs > 0 {
		if opts.Duplicable {
			rounds = 1 + ceilDiv(maxRecv, c.capacity())
		} else {
			rounds = ceilDiv(maxSend, c.capacity()) + ceilDiv(maxRecv, c.capacity())
		}
	}
	c.ChargeRounds(rounds)
	c.chargeTraffic(networkMsgs, totalWords)
}

// Broadcast models making totalWords words (held collectively by the nodes)
// known to every node: distribute-then-echo through helper nodes, charging
// 1 + 2·⌈totalWords/(n·bw)⌉ rounds. The caller keeps the actual data; the
// engine accounts for the traffic (totalWords·n words delivered).
func (c *Clique) Broadcast(totalWords int64, note string) {
	if totalWords < 0 {
		panic(fmt.Sprintf("cc: negative broadcast volume %d", totalWords))
	}
	rounds := int64(1) + 2*ceilDiv(totalWords, c.capacity())
	c.ChargeRounds(rounds)
	c.chargeTraffic(totalWords*int64(c.n), totalWords*int64(c.n))
	c.recordLoads(totalWords, totalWords)
}

// Parallel runs fn once per lane on a fresh child Clique of the same size
// with laneBW bandwidth each, modelling parallel execution of independent
// instances inside a larger-bandwidth model (paper §8.2: "the increased
// bandwidth allows us to run O(log n) instances … in parallel"). The parent
// is charged, phase by phase (see lift), the slowest lane's rounds and every
// lane's messages and words; oversubscribing its bandwidth is a violation.
func (c *Clique) Parallel(lanes, laneBW int, note string, fn func(lane int, child *Clique)) {
	if lanes <= 0 {
		return
	}
	if lanes*laneBW > c.bw {
		c.Violate("parallel %q: %d lanes × bandwidth %d exceed parent bandwidth %d",
			note, lanes, laneBW, c.bw)
	}
	laneMetrics := make([]Metrics, lanes)
	slowest := 0
	for lane := range laneMetrics {
		child := New(c.n, laneBW)
		fn(lane, child)
		laneMetrics[lane] = child.Metrics()
		if laneMetrics[lane].Rounds > laneMetrics[slowest].Rounds {
			slowest = lane
		}
	}
	for lane, cm := range laneMetrics {
		var perRound int64
		if lane == slowest {
			perRound = 1
		}
		c.lift(cm, perRound)
	}
}

// Subclique returns a child Clique on m ≤ n nodes with childBW bandwidth,
// together with a finish function that lifts the child's cost onto the
// parent phase by phase (see lift). Simulating one child round routes
// m·childBW words per child node through the parent clique (Lemma 2.1),
// costing ⌈m·childBW/(n·bw)⌉ parent rounds per child round — O(1) whenever
// m·childBW ≤ n·bw, which is exactly the regime used by Theorem 1.1
// (m = n/log³n nodes at bandwidth log³n words).
func (c *Clique) Subclique(m, childBW int) (*Clique, func()) {
	if m <= 0 || m > c.n {
		panic(fmt.Sprintf("cc: invalid subclique size %d (parent %d)", m, c.n))
	}
	child := New(m, childBW)
	finish := func() {
		// At least 1: New has rejected m < 1 and childBW < 1.
		c.lift(child.Metrics(), ceilDiv(int64(m)*int64(childBW), c.capacity()))
	}
	return child, finish
}

// lift charges a child's phases (rounds times perRound) to the parent phases
// of the same name, creating any c lacks; the child's opening phase belongs to
// c's current phase, which lift leaves current. A parent phase's MaxSend and
// MaxRecv become the larger of its own and the child phase's, unscaled: they
// record the largest per-node volume any op moved, and a child op's volume is
// what its nodes sent and received, however many parent rounds simulating it
// took.
func (c *Clique) lift(cm Metrics, perRound int64) {
	cur := c.phase
	for i, p := range cm.Phases {
		if i > 0 {
			c.Phase(p.Name)
		}
		c.ChargeRounds(p.Rounds * perRound)
		c.chargeTraffic(p.Messages, p.Words)
		c.recordLoads(p.MaxSend, p.MaxRecv)
	}
	c.phase = cur
	c.metrics.Violations = append(c.metrics.Violations, cm.Violations...)
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("cc: ceilDiv by non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
