package cc

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ n, bw int }{{0, 1}, {-1, 1}, {4, 0}, {4, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d): expected panic", tc.n, tc.bw)
				}
			}()
			New(tc.n, tc.bw)
		}()
	}
}

func TestRouteDeliversAndSorts(t *testing.T) {
	c := New(4, 1)
	msgs := []Message{
		{From: 2, To: 0, Payload: []Word{20}},
		{From: 1, To: 0, Payload: []Word{10}},
		{From: 3, To: 2, Payload: []Word{30}},
	}
	inbox := c.Route(msgs, RouteOpts{Note: "test"})
	if len(inbox[0]) != 2 || inbox[0][0].From != 1 || inbox[0][1].From != 2 {
		t.Fatalf("inbox[0] = %v", inbox[0])
	}
	if len(inbox[2]) != 1 || inbox[2][0].Payload[0] != 30 {
		t.Fatalf("inbox[2] = %v", inbox[2])
	}
	if len(inbox[1]) != 0 || len(inbox[3]) != 0 {
		t.Fatal("unexpected messages")
	}
}

func TestRouteRoundChargeLenzen(t *testing.T) {
	// n=4, bw=1: capacity 4 words/node/round. A node sending 8 words and a
	// node receiving 8 words: ceil(8/4)+ceil(8/4) = 4 rounds.
	c := New(4, 1)
	base := c.Metrics().Rounds
	var msgs []Message
	for i := 0; i < 8; i++ {
		msgs = append(msgs, Message{From: 0, To: 1, Payload: []Word{1}})
	}
	c.Route(msgs, RouteOpts{})
	if got := c.Metrics().Rounds - base; got != 4 {
		t.Fatalf("rounds = %d, want 4", got)
	}
}

func TestRouteRoundChargeDuplicable(t *testing.T) {
	// Duplicable routing charges 1 + ceil(maxRecv/capacity).
	c := New(4, 1)
	var msgs []Message
	for i := 0; i < 8; i++ {
		msgs = append(msgs, Message{From: 0, To: 1, Payload: []Word{1}})
	}
	base := c.Metrics().Rounds
	c.Route(msgs, RouteOpts{Duplicable: true})
	if got := c.Metrics().Rounds - base; got != 3 {
		t.Fatalf("rounds = %d, want 3", got)
	}
}

func TestRouteEmptyChargesNothing(t *testing.T) {
	c := New(4, 1)
	base := c.Metrics().Rounds
	c.Route(nil, RouteOpts{})
	if got := c.Metrics().Rounds - base; got != 0 {
		t.Fatalf("rounds = %d, want 0", got)
	}
}

func TestRouteBudgetViolation(t *testing.T) {
	c := New(4, 1)
	var msgs []Message
	for i := 0; i < 10; i++ {
		msgs = append(msgs, Message{From: i % 3, To: 3, Payload: []Word{1}})
	}
	c.Route(msgs, RouteOpts{RecvBudget: 4, Note: "overload"})
	m := c.Metrics()
	if len(m.Violations) != 1 {
		t.Fatalf("violations = %v, want 1", m.Violations)
	}
}

func TestRouteWithinBudgetNoViolation(t *testing.T) {
	c := New(4, 1)
	msgs := []Message{{From: 0, To: 1}}
	c.Route(msgs, RouteOpts{RecvBudget: 4, SendBudget: 4})
	if v := c.Metrics().Violations; len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestEmptyPayloadCountsOneWord(t *testing.T) {
	c := New(2, 1)
	c.Route([]Message{{From: 0, To: 1}}, RouteOpts{})
	if got := c.Metrics().Words; got != 1 {
		t.Fatalf("words = %d, want 1", got)
	}
}

func TestBandwidthScalesCharges(t *testing.T) {
	// Same traffic in a bandwidth-4 model costs fewer rounds.
	mk := func(bw int) int64 {
		c := New(4, bw)
		var msgs []Message
		for i := 0; i < 32; i++ {
			msgs = append(msgs, Message{From: 0, To: 1, Payload: []Word{1}})
		}
		c.Route(msgs, RouteOpts{})
		return c.Metrics().Rounds
	}
	if r1, r4 := mk(1), mk(4); r4 >= r1 {
		t.Fatalf("bandwidth 4 (%d rounds) should beat bandwidth 1 (%d rounds)", r4, r1)
	}
}

func TestBroadcastCharge(t *testing.T) {
	c := New(4, 1)
	base := c.Metrics().Rounds
	c.Broadcast(8, "test")
	// 1 + 2*ceil(8/4) = 5 rounds.
	if got := c.Metrics().Rounds - base; got != 5 {
		t.Fatalf("rounds = %d, want 5", got)
	}
	if got := c.Metrics().Words; got != 32 {
		t.Fatalf("words = %d, want 32 (8 words to 4 nodes)", got)
	}
}

func TestPhaseAccounting(t *testing.T) {
	c := New(4, 1)
	c.Phase("alpha")
	c.ChargeRounds(3)
	c.Phase("beta")
	c.ChargeRounds(2)
	c.Phase("alpha")
	c.ChargeRounds(1)
	m := c.Metrics()
	if m.Rounds != 6 {
		t.Fatalf("total rounds = %d, want 6", m.Rounds)
	}
	a, ok := m.PhaseByName("alpha")
	if !ok || a.Rounds != 4 {
		t.Fatalf("alpha rounds = %+v", a)
	}
	b, ok := m.PhaseByName("beta")
	if !ok || b.Rounds != 2 {
		t.Fatalf("beta rounds = %+v", b)
	}
}

func TestParallelChargesMax(t *testing.T) {
	c := New(8, 16)
	c.Parallel(4, 4, "lanes", func(lane int, child *Clique) {
		child.Phase("work")
		child.ChargeRounds(int64(lane + 1))
		child.Phase("talk")
		child.Broadcast(8, "talk") // capacity 32: 1+2 rounds, 64 messages
	})
	m := c.Metrics()
	if m.Rounds != 7 || m.Messages != 4*64 {
		t.Fatalf("rounds/messages = %d/%d, want max lane 7 and every lane's 256", m.Rounds, m.Messages)
	}
	if len(m.Violations) != 0 {
		t.Fatalf("violations: %v", m.Violations)
	}
	// The breakdown shows the slowest lane's rounds and every lane's traffic.
	if w, _ := m.PhaseByName("work"); w.Rounds != 4 || w.Messages != 0 {
		t.Fatalf("work phase = %+v, want the slowest lane's 4 rounds", w)
	}
	if tk, _ := m.PhaseByName("talk"); tk.Rounds != 3 || tk.Messages != 4*64 || tk.Words != 4*64 {
		t.Fatalf("talk phase = %+v, want 3 rounds and 256 messages/words", tk)
	}
	// Per-node loads lift as the largest any lane saw, not a sum over lanes:
	// each lane's Broadcast(8) moved 8 words per node.
	if tk, _ := m.PhaseByName("talk"); tk.MaxSend != 8 || tk.MaxRecv != 8 {
		t.Fatalf("talk loads = %d/%d, want 8/8", tk.MaxSend, tk.MaxRecv)
	}
}

func TestParallelOversubscriptionViolates(t *testing.T) {
	c := New(8, 4)
	c.Parallel(4, 4, "too many", func(lane int, child *Clique) {})
	if v := c.Metrics().Violations; len(v) != 1 {
		t.Fatalf("violations = %v, want 1", v)
	}
}

func TestSubcliqueLift(t *testing.T) {
	// Parent n=16 bw=1 (capacity 16). Child m=4, bw=4: one child round routes
	// 16 words per child node → 1 parent round per child round.
	c := New(16, 1)
	child, finish := c.Subclique(4, 4)
	child.ChargeRounds(5)
	finish()
	if got := c.Metrics().Rounds; got != 5 {
		t.Fatalf("parent rounds = %d, want 5", got)
	}
	// Child with more bandwidth than the parent can carry per round: each
	// child phase lifts into the parent phase of the same name at 8x.
	c2 := New(4, 1)
	c2.Phase("outer")
	child2, finish2 := c2.Subclique(4, 8) // 32 words per child round, capacity 4
	child2.ChargeRounds(1)                // before any child phase: lifts into "outer"
	child2.Phase("inner")
	child2.ChargeRounds(2)
	finish2()
	c2.ChargeRounds(3) // finish left the parent in "outer"
	m2 := c2.Metrics()
	if m2.Rounds != 27 {
		t.Fatalf("parent rounds = %d, want 27 (8x lift of 3, then 3)", m2.Rounds)
	}
	if p, _ := m2.PhaseByName("outer"); p.Rounds != 11 {
		t.Fatalf("outer phase = %+v, want 8+3 rounds", p)
	}
	if p, _ := m2.PhaseByName("inner"); p.Rounds != 16 {
		t.Fatalf("inner phase = %+v, want 16 rounds (8x lift)", p)
	}

	// Per-node loads lift unscaled: a child Broadcast(8) reads 8/8 in the
	// parent phase of its name, though each child round cost 8 parent ones.
	c3 := New(4, 1)
	child3, finish3 := c3.Subclique(4, 8)
	child3.Phase("talk")
	child3.Broadcast(8, "talk")
	if p, _ := child3.Metrics().PhaseByName("talk"); p.MaxSend != 8 || p.MaxRecv != 8 {
		t.Fatalf("child talk loads = %d/%d, want 8/8", p.MaxSend, p.MaxRecv)
	}
	finish3()
	if p, _ := c3.Metrics().PhaseByName("talk"); p.MaxSend != 8 || p.MaxRecv != 8 {
		t.Fatalf("lifted talk loads = %d/%d, want 8/8", p.MaxSend, p.MaxRecv)
	}
}

func TestViolationsPropagateFromChildren(t *testing.T) {
	c := New(8, 8)
	c.Parallel(1, 4, "child", func(lane int, child *Clique) {
		child.Violate("inner problem")
	})
	if v := c.Metrics().Violations; len(v) != 1 || v[0] != "inner problem" {
		t.Fatalf("violations = %v", v)
	}
}

func TestMetricsCopyIsolation(t *testing.T) {
	c := New(2, 1)
	m := c.Metrics()
	m.Phases[0].Rounds = 999
	if c.Metrics().Phases[0].Rounds == 999 {
		t.Fatal("Metrics() must return a copy")
	}
}

func TestSubcliquePanicsOnBadSize(t *testing.T) {
	c := New(8, 1)
	for _, m := range []int{0, -1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Subclique(%d) should panic", m)
				}
			}()
			c.Subclique(m, 1)
		}()
	}
}

func TestBroadcastZeroVolume(t *testing.T) {
	c := New(4, 1)
	base := c.Metrics().Rounds
	c.Broadcast(0, "empty")
	if got := c.Metrics().Rounds - base; got != 1 {
		t.Fatalf("zero-volume broadcast charged %d rounds, want 1", got)
	}
}

func TestBroadcastNegativePanics(t *testing.T) {
	c := New(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative broadcast volume should panic")
		}
	}()
	c.Broadcast(-1, "bad")
}

func TestRoutePanicsOnBadEndpoint(t *testing.T) {
	c := New(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("bad endpoint should panic")
		}
	}()
	c.Route([]Message{{From: 0, To: 9}}, RouteOpts{})
}

// Route's counting sort by sender must build exactly the inboxes a stable
// sort of each destination's messages by sender builds: same messages, same
// order, same payload slices. The lists mix self-messages, repeated
// (From, To) pairs and empty payloads, some already in sender order. Each
// list is routed into fresh memory and into Mailboxes that every trial
// reuses, whose stale inboxes are longer or shorter than the trial needs.
func TestRouteInboxesMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused Mailboxes
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		msgs := make([]Message, rng.Intn(60))
		for i := range msgs {
			from, to := rng.Intn(n), rng.Intn(n)
			if rng.Intn(4) == 0 && i > 0 {
				from, to = msgs[i-1].From, msgs[i-1].To
			}
			// A distinct backing array per message, even when empty, so
			// payload identity pins which message landed where.
			payload := make([]Word, rng.Intn(3), 3)
			for j := range payload {
				payload[j] = Word(i)
			}
			msgs[i] = Message{From: from, To: to, Payload: payload}
		}
		if trial%3 == 0 {
			slices.SortStableFunc(msgs, func(a, b Message) int { return cmp.Compare(a.From, b.From) })
		}
		want := make([][]Message, n)
		for _, m := range msgs {
			want[m.To] = append(want[m.To], m)
		}
		for _, in := range want {
			slices.SortStableFunc(in, func(a, b Message) int { return cmp.Compare(a.From, b.From) })
		}
		for _, into := range []*Mailboxes{nil, &reused} {
			got := New(n, 1).Route(msgs, RouteOpts{Into: into})
			if len(got) != n {
				t.Fatalf("trial %d: %d inboxes, want %d", trial, len(got), n)
			}
			for v := 0; v < n; v++ {
				if len(got[v]) != len(want[v]) {
					t.Fatalf("trial %d node %d: %d messages, want %d", trial, v, len(got[v]), len(want[v]))
				}
				for i, m := range want[v] {
					g := got[v][i]
					if g.From != m.From || g.To != m.To || len(g.Payload) != len(m.Payload) ||
						unsafe.SliceData(g.Payload) != unsafe.SliceData(m.Payload) {
						t.Fatalf("trial %d node %d message %d: got %+v, want %+v", trial, v, i, g, m)
					}
				}
			}
		}
	}
}

func TestSelfMessagesAreFree(t *testing.T) {
	c := New(4, 1)
	base := c.Metrics()
	inbox := c.Route([]Message{{From: 2, To: 2, Payload: []Word{7}}}, RouteOpts{})
	m := c.Metrics()
	if m.Rounds != base.Rounds || m.Messages != base.Messages {
		t.Fatalf("self message charged: rounds %d→%d msgs %d→%d",
			base.Rounds, m.Rounds, base.Messages, m.Messages)
	}
	if len(inbox[2]) != 1 || inbox[2][0].Payload[0] != 7 {
		t.Fatalf("self message not delivered: %v", inbox[2])
	}
}

func TestChargeRoundsNegativePanics(t *testing.T) {
	c := New(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge should panic")
		}
	}()
	c.ChargeRounds(-1)
}

func TestPhaseLoadTracking(t *testing.T) {
	c := New(4, 1)
	c.Phase("loads")
	var msgs []Message
	for i := 0; i < 6; i++ {
		msgs = append(msgs, Message{From: 0, To: 1, Payload: []Word{1, 2}})
	}
	c.Route(msgs, RouteOpts{})
	p, ok := c.Metrics().PhaseByName("loads")
	if !ok {
		t.Fatal("phase missing")
	}
	if p.MaxSend != 12 || p.MaxRecv != 12 {
		t.Fatalf("loads = %d/%d, want 12/12", p.MaxSend, p.MaxRecv)
	}
}

func TestLiveEngineReusable(t *testing.T) {
	e := NewLive(4, 1)
	for run := 0; run < 3; run++ {
		m, err := e.Run(func(ctx *NodeCtx) error {
			if ctx.ID() == 0 {
				if err := ctx.Send(1, Word(run)); err != nil {
					return err
				}
			}
			ctx.EndRound()
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if m.Rounds != 1 {
			t.Fatalf("run %d: rounds = %d", run, m.Rounds)
		}
	}
}

func TestPropertyRouteChargeMonotoneInLoad(t *testing.T) {
	// More traffic never costs fewer rounds.
	prev := int64(0)
	for load := 1; load <= 64; load *= 2 {
		c := New(8, 1)
		var msgs []Message
		for i := 0; i < load; i++ {
			msgs = append(msgs, Message{From: 0, To: 1, Payload: []Word{1}})
		}
		c.Route(msgs, RouteOpts{})
		r := c.Metrics().Rounds
		if r < prev {
			t.Fatalf("load %d charged %d rounds, less than previous %d", load, r, prev)
		}
		prev = r
	}
}

// AllToAll must charge exactly what Route charges for the explicit
// n·(n−1) message list it stands for: loads, rounds, traffic, phase
// maxima and violation strings alike.
func TestAllToAllMatchesRoute(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		for _, bw := range []int{1, 3} {
			for _, w := range []int64{1, 2} {
				load := int64(n-1) * w
				for _, dup := range []bool{false, true} {
					for _, budget := range []int64{0, load - 1, load, load + 1} {
						opts := RouteOpts{Duplicable: dup, RecvBudget: budget, SendBudget: budget, Note: "announce"}
						var payload []Word // data-free: an empty message occupies one word
						if w > 1 {
							payload = make([]Word, w)
						}
						var msgs []Message
						for u := 0; u < n; u++ {
							for v := 0; v < n; v++ {
								if u != v {
									msgs = append(msgs, Message{From: u, To: v, Payload: payload})
								}
							}
						}
						want, got := New(n, bw), New(n, bw)
						want.Phase("p")
						got.Phase("p")
						want.Route(msgs, opts)
						got.AllToAll(w, opts)
						if !reflect.DeepEqual(got.Metrics(), want.Metrics()) {
							t.Fatalf("n=%d bw=%d w=%d dup=%v budget=%d:\n AllToAll %+v\n Route    %+v",
								n, bw, w, dup, budget, got.Metrics(), want.Metrics())
						}
					}
				}
			}
		}
	}
}
