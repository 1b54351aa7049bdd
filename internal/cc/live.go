package cc

import (
	"fmt"
	"sync"
)

// LiveEngine executes a node program on every node concurrently, one
// goroutine per node, with synchronous rounds: messages buffered during a
// round are delivered at the next barrier. The per-pair bandwidth cap is
// enforced at send time, exactly as in the model.
type LiveEngine struct {
	n  int
	bw int
}

// NewLive returns a goroutine-per-node engine for n nodes and the given
// per-pair bandwidth in words.
func NewLive(n, bandwidthWords int) *LiveEngine {
	if n <= 0 {
		panic(fmt.Sprintf("cc: invalid node count %d", n))
	}
	if bandwidthWords <= 0 {
		panic(fmt.Sprintf("cc: invalid bandwidth %d", bandwidthWords))
	}
	return &LiveEngine{n: n, bw: bandwidthWords}
}

// NodeFunc is a node program. It runs on its own goroutine; ctx provides the
// node's identity and its communication interface.
type NodeFunc func(ctx *NodeCtx) error

// NodeCtx is the per-node view of a live run.
type NodeCtx struct {
	id  int
	run *liveRun
	// sentTo tracks words sent per destination in the current round, for
	// bandwidth enforcement.
	sentTo map[int]int64
}

// ID returns this node's identifier in 0..n-1.
func (ctx *NodeCtx) ID() int { return ctx.id }

// N returns the number of nodes.
func (ctx *NodeCtx) N() int { return ctx.run.eng.n }

// Send buffers a message to node `to` for delivery at the next round
// boundary. It returns an error if the destination is invalid or the
// per-pair bandwidth for this round is exceeded.
func (ctx *NodeCtx) Send(to int, payload ...Word) error {
	eng := ctx.run.eng
	if to < 0 || to >= eng.n {
		return fmt.Errorf("cc: send to invalid node %d", to)
	}
	if to == ctx.id {
		return fmt.Errorf("cc: node %d sending to itself", ctx.id)
	}
	w := int64(len(payload))
	if w == 0 {
		w = 1
	}
	if ctx.sentTo[to]+w > int64(eng.bw) {
		return fmt.Errorf("cc: node %d exceeds bandwidth %d words to node %d this round",
			ctx.id, eng.bw, to)
	}
	ctx.sentTo[to] += w
	cp := append([]Word(nil), payload...)
	ctx.run.outbox[ctx.id] = append(ctx.run.outbox[ctx.id], Message{From: ctx.id, To: to, Payload: cp})
	return nil
}

// EndRound blocks until every active node has ended the round, then returns
// the messages delivered to this node, ordered by sender.
func (ctx *NodeCtx) EndRound() []Message {
	ctx.run.barrier.await()
	for k := range ctx.sentTo {
		delete(ctx.sentTo, k)
	}
	in := ctx.run.inbox[ctx.id]
	ctx.run.inbox[ctx.id] = nil
	return in
}

type liveRun struct {
	eng     *LiveEngine
	outbox  [][]Message // indexed by sender; each goroutine writes only its row
	inbox   [][]Message
	barrier *barrier
	rounds  int64
	msgs    int64
	words   int64
	statsMu sync.Mutex
}

// deliver moves all outbox messages to inboxes. Called by the barrier while
// all nodes are parked, so no synchronization with senders is needed.
// Outboxes are drained in sender order, so every inbox comes out ordered
// by sender.
func (r *liveRun) deliver() {
	r.rounds++
	for from := range r.outbox {
		for _, m := range r.outbox[from] {
			r.inbox[m.To] = append(r.inbox[m.To], m)
			r.msgs++
			r.words += m.words()
		}
		r.outbox[from] = nil
	}
}

// Run executes the program on all nodes and returns the run metrics. All
// nodes must call EndRound the same number of times while active; a node
// that returns stops participating in barriers. Run returns the first
// program error, if any.
func (e *LiveEngine) Run(program NodeFunc) (Metrics, error) {
	run := &liveRun{
		eng:    e,
		outbox: make([][]Message, e.n),
		inbox:  make([][]Message, e.n),
	}
	run.barrier = newBarrier(e.n, run.deliver)

	errs := make([]error, e.n)
	var wg sync.WaitGroup
	wg.Add(e.n)
	for id := 0; id < e.n; id++ {
		go func(id int) {
			defer wg.Done()
			ctx := &NodeCtx{id: id, run: run, sentTo: make(map[int]int64)}
			defer run.barrier.leave()
			errs[id] = program(ctx)
		}(id)
	}
	wg.Wait()

	m := Metrics{Rounds: run.rounds, Messages: run.msgs, Words: run.words}
	for id, err := range errs {
		if err != nil {
			return m, fmt.Errorf("node %d: %w", id, err)
		}
	}
	return m, nil
}

// barrier is a reusable n-party barrier. When the last party arrives, the
// onRelease hook runs (while everyone is parked) and a new generation
// starts. Parties can permanently leave.
type barrier struct {
	mu        sync.Mutex
	cond      *sync.Cond
	parties   int
	arrived   int
	gen       uint64
	onRelease func()
}

func newBarrier(parties int, onRelease func()) *barrier {
	b := &barrier{parties: parties, onRelease: onRelease}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.release()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// release fires the hook and wakes the generation. Caller holds b.mu.
func (b *barrier) release() {
	if b.onRelease != nil {
		b.onRelease()
	}
	b.arrived = 0
	b.gen++
	b.cond.Broadcast()
}

// leave permanently removes one party. If the remaining parties have all
// already arrived, the round completes.
func (b *barrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.parties--
	if b.parties > 0 && b.arrived == b.parties {
		b.release()
	}
}
