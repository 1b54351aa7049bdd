package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// setups is how many times an end-to-end run sets its tenant up from
// scratch; setup_s and the set-up uploads report the median of these. A
// cold restore costs milliseconds, not a build, so serve-cold restores
// coldSetups times.
const (
	setups     = 3
	coldSetups = 9
)

// classCount counts ops of one class sent and failed.
type classCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// report is what one run measured and checked.
type report struct {
	metrics  map[string]float64
	classes  map[string]*classCount
	problems []string
	info     map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, classes: map[string]*classCount{}, info: map[string]any{}}
}

func (r *report) class(name string) *classCount {
	c := r.classes[name]
	if c == nil {
		c = &classCount{}
		r.classes[name] = c
	}
	return c
}

// fail records a failed op of class name with its reason (the first few
// reasons are kept for the log).
func (r *report) fail(name string, count int64, err error) {
	r.class(name).Failed += count
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", name, err))
	}
}

func (r *report) totals() (attempted, failed int64) {
	for _, c := range r.classes {
		attempted += c.Attempted
		failed += c.Failed
	}
	return
}

// env is the run's fixed context.
type env struct {
	ccserve string
	work    string
	keys    string
	procs   int
	seconds float64
	seed    int64
}

// bodyKey identifies one distinct answer: the op of the cycle and the
// snapshot version that answered it. The same op on the same version must
// always return the same bytes, so only the first copy is kept for checking.
type bodyKey struct {
	op      int
	version uint64
}

type servedBody struct {
	body  []byte
	count int64 // ops that returned exactly these bytes
}

// reader is one closed-loop read client: it sends the op cycle in order on
// one connection, timing each op and keeping each distinct answer.
type reader struct {
	ops    []op
	rep    *report
	buf    bytes.Buffer
	tl     timeline
	bodies map[bodyKey]*servedBody
	// noRoute counts path ops answered "no route" (see isNoRoute).
	noRoute int64
}

func (rd *reader) send(s *server, i int) {
	o := rd.ops[i%len(rd.ops)]
	cls := o.kind.String()
	rd.rep.class(cls).Attempted++
	t0 := rd.tl.begin(s)
	err := s.do(o.method(), o.path, tenantKey, o.body, &rd.buf)
	d := time.Since(t0)
	body := rd.buf.Bytes()
	if err != nil {
		if !isNoRoute(o, err) {
			rd.rep.fail(cls, 1, err)
			return
		}
		rd.noRoute++
	}
	rd.tl.add(t0, d)
	v, ok := parseVersion(body)
	if !ok {
		rd.rep.fail(cls, 1, fmt.Errorf("answer without a version: %.200s", body))
		return
	}
	k := bodyKey{i % len(rd.ops), v}
	if sb := rd.bodies[k]; sb != nil {
		if !bytes.Equal(sb.body, body) {
			rd.rep.fail(cls, 1, fmt.Errorf("op %d on v%d answered differently twice", k.op, v))
			return
		}
		sb.count++
		return
	}
	rd.bodies[k] = &servedBody{body: append([]byte(nil), body...), count: 1}
}

// noRouteMsg marks the 400 a path query gets when greedy forwarding over
// the estimate finds no route (cliqueapsp.ErrNoRoute).
const noRouteMsg = "greedy forwarding found no route"

// isNoRoute reports whether err is a path op's no-route answer. Greedy
// routing over an approximate estimate may loop or dead-end; ccserve
// answers that with a 400 naming the snapshot. It is an answer like any
// other, checked against the in-process oracle.
func isNoRoute(o op, err error) bool {
	var he *httpError
	return o.kind == opPath && errors.As(err, &he) && he.status == http.StatusBadRequest &&
		bytes.Contains(he.body, []byte(noRouteMsg))
}

// parseVersion finds the snapshot version an answer names: the "version"
// field of a success, or the "snapshot vN" of a no-route error.
func parseVersion(body []byte) (uint64, bool) {
	for _, key := range []string{`"version":`, `snapshot v`} {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			continue
		}
		rest := body[i+len(key):]
		j := 0
		for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
			j++
		}
		v, err := strconv.ParseUint(string(rest[:j]), 10, 64)
		return v, err == nil
	}
	return 0, false
}

// bench drives one end-to-end run of a workload.
type bench struct {
	e   env
	dir string // this bench's data dirs live here
	w   workload
	in  inputs
	srv *server
	rep *report
	rd  *reader

	setup        []time.Duration // launch → first answer, per set-up
	setupUploads []time.Duration // the set-up graph's uploads, sent → published
	updates      []time.Duration // writes, sent → published
	primary      *timeline       // the workload's primary ops
	// states maps every version the server published to the state it
	// serves: the graph index for uploads, the number of deltas applied for
	// patch-mixed.
	states map[uint64]int
	// setups and restores count the set-ups a run makes: tenant
	// creations with an upload, and cold restores.
	setups, restores int
	extra            []string // extra ccserve flags
	stretch          []byte   // the stretch probe's answer
	stretchV         uint64   // and the version that gave it
}

func (b *bench) stopServer() {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
}

func (b *bench) start(flags ...string) error {
	b.stopServer()
	if b.w.kernelPar > 0 {
		flags = append(flags, "-kernelpar", strconv.Itoa(b.w.kernelPar))
	}
	s, err := startServer(b.e.ccserve, b.e.work, b.e.keys, b.e.procs, append(flags, b.extra...)...)
	if err != nil {
		return err
	}
	b.srv = s
	return nil
}

// firstAnswer waits for the tenant's first dist answer.
func (b *bench) firstAnswer() error {
	return b.srv.do(http.MethodGet, pairOp(opDist, b.in.stretch[0]).path, tenantKey, nil, &bytes.Buffer{})
}

func (b *bench) dataDir(name string) (string, error) {
	dir := filepath.Join(b.dir, name)
	return dir, os.MkdirAll(dir, 0o755)
}

// setupHot starts ccserve, creates the tenant and uploads the set-up graph,
// several times over; the last server stays up.
func (b *bench) setupHot() error {
	body := graphJSON(b.in.graphs[0])
	for i := 0; i < b.setups; i++ {
		var flags []string
		if b.w.patches {
			dir, err := b.dataDir(fmt.Sprintf("data-%d", i))
			if err != nil {
				return err
			}
			flags = append(flags, "-datadir", dir)
		}
		t0 := time.Now()
		if err := b.start(flags...); err != nil {
			return err
		}
		if err := b.srv.createTenant(b.w.alg, b.in.tenantSeed); err != nil {
			return err
		}
		tu := time.Now()
		v, err := b.srv.upload(body)
		if err != nil {
			return err
		}
		up := time.Since(tu)
		if err := b.firstAnswer(); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(t0))
		b.states[v] = 0
		b.setupUploads = append(b.setupUploads, up)
	}
	if !b.w.uploads && !b.w.patches {
		b.updates = b.setupUploads
	}
	return nil
}

// setupCold prepares a data dir with the tenant persisted by one upload,
// then restores it several times in a ccserve whose node budget is below n,
// so the tenant comes up in the disk tier.
func (b *bench) setupCold() error {
	dir, err := b.dataDir("data")
	if err != nil {
		return err
	}
	if err := b.start("-datadir", dir); err != nil {
		return err
	}
	if err := b.srv.createTenant(b.w.alg, b.in.tenantSeed); err != nil {
		return err
	}
	tu := time.Now()
	v, err := b.srv.upload(graphJSON(b.in.graphs[0]))
	if err != nil {
		return err
	}
	b.setupUploads = append(b.setupUploads, time.Since(tu))
	b.states[v] = 0
	b.updates = b.setupUploads
	for i := 0; i < b.restores; i++ {
		t0 := time.Now()
		if err := b.start("-datadir", dir, "-maxtotaln", strconv.Itoa(b.w.n/2)); err != nil {
			return err
		}
		if err := b.firstAnswer(); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(t0))
	}
	st, err := b.srv.tenantStats()
	if err != nil {
		return err
	}
	if st.Tier != "cold" {
		return fmt.Errorf("restored tenant serves from tier %q, want cold", st.Tier)
	}
	return nil
}

// warm brings the serving caches to steady state: reads for the read
// workloads, one discarded build for rebuild.
func (b *bench) warm() error {
	if b.w.uploads {
		v, err := b.srv.upload(graphJSON(b.in.graphs[1]))
		b.states[v] = 1
		return err
	}
	return b.warmReads()
}

// warmReads sends the warm-up reads, untimed.
func (b *bench) warmReads() error {
	warm := &reader{ops: b.in.warm, rep: newReport(), bodies: map[bodyKey]*servedBody{}}
	for i := range b.in.warm {
		warm.send(b.srv, i)
	}
	if _, failed := warm.rep.totals(); failed > 0 {
		return fmt.Errorf("warm-up reads failed: %v", warm.rep.problems)
	}
	return nil
}

// measure runs the timed window.
func (b *bench) measure() error {
	b.rd = &reader{ops: b.in.ops, rep: b.rep, bodies: map[bodyKey]*servedBody{}}
	b.primary = &b.rd.tl
	switch {
	case b.w.uploads:
		b.primary = &timeline{}
		b.runUploads(time.Now().Add(seconds(b.e.seconds)))
	case b.w.patches:
		b.runPatches()
	default:
		deadline := time.Now().Add(seconds(b.e.seconds))
		for i := 0; time.Now().Before(deadline); i++ {
			b.rd.send(b.srv, i)
		}
	}
	return b.primary.finish(b.srv)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runUploads is rebuild's closed loop: upload the next graph of the cycle,
// wait for its publish, repeat.
func (b *bench) runUploads(deadline time.Time) {
	bodies := make([][]byte, len(b.in.graphs))
	for i, g := range b.in.graphs {
		bodies[i] = graphJSON(g)
	}
	c := b.rep.class("upload")
	for i := 2; time.Now().Before(deadline); i++ {
		gi := i % len(bodies)
		c.Attempted++
		t0 := b.primary.begin(b.srv)
		v, err := b.srv.upload(bodies[gi])
		d := time.Since(t0)
		if err != nil {
			b.rep.fail("upload", 1, err)
			continue
		}
		b.states[v] = gi
		b.primary.add(t0, d)
	}
	b.updates = b.primary.lat
}

// runPatches is patch-mixed: one writer replays the delta stream as
// single-edge PATCH ?wait=1 while one reader runs the read mix; the window
// ends when the stream does.
func (b *bench) runPatches() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b.rd.send(b.srv, i)
		}
	}()
	// The writer counts into its own report: the reader goroutine owns
	// b.rep until it has stopped.
	wrep := newReport()
	c := wrep.class("patch")
	var buf bytes.Buffer
	for k, e := range b.in.deltas {
		c.Attempted++
		t0 := time.Now()
		err := b.srv.do(http.MethodPatch, tenantPath("/edges?wait=1"), tenantKey, deltaJSON(e), &buf)
		d := time.Since(t0)
		if err != nil {
			wrep.fail("patch", 1, err)
			continue
		}
		v, ok := parseVersion(buf.Bytes())
		if !ok {
			wrep.fail("patch", 1, fmt.Errorf("answer without a version: %.200s", buf.Bytes()))
			continue
		}
		b.states[v] = k + 1
		b.updates = append(b.updates, d)
	}
	close(stop)
	<-done
	for name, cc := range wrep.classes {
		b.rep.class(name).Attempted += cc.Attempted
		b.rep.class(name).Failed += cc.Failed
	}
	b.rep.problems = append(b.rep.problems, wrep.problems...)
}

// after reads the server-side figures once the window has closed: live
// heap, counters, and the stretch probe's answer.
func (b *bench) after() error {
	heap, procs, err := b.srv.liveHeap()
	if err != nil {
		return err
	}
	b.rep.metrics["heap_live_mb"] = float64(heap) / (1 << 20)
	b.rep.info["ccserve_gomaxprocs"] = procs
	st, err := b.srv.tenantStats()
	if err != nil {
		return err
	}
	b.rep.info["counters"] = map[string]uint64{
		"repairs":          st.Repairs,
		"repair_fallbacks": st.RepairFallbacks,
		"coalesced_deltas": st.CoalescedDeltas,
	}
	if st.CoalescedDeltas != 0 {
		b.rep.fail("patch", 1, fmt.Errorf("%d deltas coalesced; every PATCH must publish on its own", st.CoalescedDeltas))
	}
	return nil
}

// probe sends the stretch probe — one batch over the fixed sampled pairs —
// right after set-up, so it always reads the set-up graph's estimate.
func (b *bench) probe() error {
	b.rep.class("probe").Attempted++
	var buf bytes.Buffer
	probe := batchOp(b.in.stretch)
	if err := b.srv.do(http.MethodPost, probe.path, tenantKey, probe.body, &buf); err != nil {
		b.rep.fail("probe", 1, err)
		return nil
	}
	v, ok := parseVersion(buf.Bytes())
	if !ok {
		b.rep.fail("probe", 1, fmt.Errorf("answer without a version: %.200s", buf.Bytes()))
		return nil
	}
	b.stretch, b.stretchV = append([]byte(nil), buf.Bytes()...), v
	return nil
}

func newBench(e env, w workload, setups, restores int) (*bench, error) {
	dir, err := os.MkdirTemp(e.work, "bench-")
	if err != nil {
		return nil, err
	}
	return &bench{e: e, w: w, dir: dir, rep: newReport(), states: map[uint64]int{},
		in: w.makeInputs(e.seed, patchCount(w, e.seconds)), setups: setups, restores: restores}, nil
}

// runE2E runs workload w end to end and returns its report.
func runE2E(e env, w workload) (*report, error) {
	b, err := newBench(e, w, setups, coldSetups)
	if err != nil {
		return nil, err
	}
	defer b.stopServer()
	setup := b.setupHot
	if w.cold {
		setup = b.setupCold
	}
	for _, step := range []func() error{setup, b.probe, b.warm, b.measure, b.after} {
		if err := step(); err != nil {
			if b.srv != nil {
				return nil, fmt.Errorf("%w\nccserve log:\n%s", err, b.srv.logTail())
			}
			return nil, err
		}
	}
	b.stopServer()
	if err := b.check(); err != nil {
		return nil, err
	}

	m := b.rep.metrics
	m["setup_s"] = median(durs(b.setup, time.Second))
	sl := b.primary.slices()
	m["ops_per_s"] = median(sl.rate)
	m["latency_p50_us"] = median(sl.p50) / 1e3
	m["latency_tail_us"] = median(sl.tail) / 1e3
	m["cpu_us_per_op"] = median(sl.cpu)
	upd := summarize(b.updates)
	m["update_p50_us"] = float64(upd.p50) / 1e3
	m["update_tail_us"] = float64(upd.tail) / 1e3
	b.rep.info["slices"] = len(sl.rate)
	b.rep.info["latency_tail"] = map[string]any{"percentile": sl.tailPct, "samples": sl.tailCount}
	b.rep.info["update_tail"] = map[string]any{"percentile": upd.tailPct, "samples": upd.count}
	b.rep.info["window_s"] = b.primary.span().Seconds()
	b.rep.info["path_no_route"] = b.rd.noRoute
	return b.rep, nil
}

func patchCount(w workload, secs float64) int {
	if !w.patches {
		return 0
	}
	n := int(secs * patchesPerSecond)
	if n < 1 {
		n = 1
	}
	return n
}
