package trace

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestSpanTreeAssembly(t *testing.T) {
	store := NewStore(16)
	tr := NewTracer(1, store)

	root := tr.StartRoot("GET /v1/dist", TraceID{}, SpanID{})
	if root == nil {
		t.Fatal("StartRoot returned nil on a live tracer")
	}
	id := root.TraceID()
	if id.IsZero() {
		t.Fatal("root minted a zero trace ID")
	}
	ctx := ContextWith(context.Background(), root)

	ctx2, child := StartSpan(ctx, "oracle.dist")
	if child == nil {
		t.Fatal("StartSpan under an active span returned nil")
	}
	child.SetInt("u", 3)
	child.Event("row_cache.miss")
	_, grand := StartSpan(ctx2, "tier.pread")
	grand.SetError(errors.New("boom"))
	grand.End()
	child.End()

	// Nothing is stored until the root ends.
	if _, ok := store.Get(id); ok {
		t.Fatal("trace stored before the root ended")
	}
	root.SetStatus(200)
	root.SetAttr("tenant", "default")
	root.End()

	got, ok := store.Get(id)
	if !ok {
		t.Fatalf("trace %s not stored after root End", id)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("stored %d spans, want 3", len(got.Spans))
	}
	rootRec := got.Root()
	if rootRec == nil || rootRec.Name != "GET /v1/dist" || rootRec.Status != 200 {
		t.Fatalf("root record = %+v", rootRec)
	}
	byName := map[string]SpanRecord{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
	}
	if byName["oracle.dist"].ParentID != rootRec.SpanID {
		t.Fatalf("oracle.dist parent = %q, want root %q", byName["oracle.dist"].ParentID, rootRec.SpanID)
	}
	if byName["tier.pread"].ParentID != byName["oracle.dist"].SpanID {
		t.Fatal("tier.pread is not a child of oracle.dist")
	}
	if byName["tier.pread"].Error != "boom" {
		t.Fatalf("tier.pread error = %q", byName["tier.pread"].Error)
	}
	if len(byName["oracle.dist"].Events) != 1 || byName["oracle.dist"].Events[0].Name != "row_cache.miss" {
		t.Fatalf("oracle.dist events = %+v", byName["oracle.dist"].Events)
	}
	if len(byName["oracle.dist"].Attrs) != 1 || byName["oracle.dist"].Attrs[0] != (Attr{Key: "u", Value: "3"}) {
		t.Fatalf("oracle.dist attrs = %+v", byName["oracle.dist"].Attrs)
	}
}

func TestLateChildIsDroppedAfterRootEnds(t *testing.T) {
	store := NewStore(16)
	tr := NewTracer(1, store)
	root := tr.StartRoot("r", TraceID{}, SpanID{})
	straggler := root.StartChild("background")
	root.End()
	straggler.End() // must not race or mutate the stored trace

	got, _ := store.Get(root.TraceID())
	if len(got.Spans) != 1 {
		t.Fatalf("stored %d spans, want 1 (straggler dropped)", len(got.Spans))
	}
}

func TestPerTraceSpanCap(t *testing.T) {
	store := NewStore(16)
	tr := NewTracer(1, store)
	root := tr.StartRoot("r", TraceID{}, SpanID{})
	for i := 0; i < maxSpansPerTrace+10; i++ {
		root.AddChild("c", time.Now(), time.Microsecond)
	}
	root.End()
	got, _ := store.Get(root.TraceID())
	// The cap bounds children; the root always records on top of it.
	if len(got.Spans) != maxSpansPerTrace+1 {
		t.Fatalf("stored %d spans, want %d", len(got.Spans), maxSpansPerTrace+1)
	}
	if got.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", got.Dropped)
	}
}

func TestRemoteParentKeptAsAttr(t *testing.T) {
	store := NewStore(16)
	tr := NewTracer(1, store)
	sc, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	root := tr.StartRoot("r", sc.TraceID, sc.SpanID)
	root.End()
	got, ok := store.Get(sc.TraceID)
	if !ok {
		t.Fatal("trace not stored under the propagated ID")
	}
	rec := got.Root()
	if rec.ParentID != "" {
		t.Fatalf("local root has ParentID %q; remote parent must be an attr", rec.ParentID)
	}
	if len(rec.Attrs) != 1 || rec.Attrs[0] != (Attr{Key: "w3c.parent_id", Value: "00f067aa0ba902b7"}) {
		t.Fatalf("attrs = %+v", rec.Attrs)
	}
}

func TestCaptureRootStoresForcedTrace(t *testing.T) {
	store := NewStore(16)
	tr := NewTracer(0, store) // sampling off: the forced path is the only way in
	start := time.Now().Add(-time.Second)
	id := tr.CaptureRoot(TraceID{}, "GET /v1/dist", start, time.Second, 200, String("sampling", "forced"))
	if id.IsZero() {
		t.Fatal("CaptureRoot returned a zero ID")
	}
	got, ok := store.Get(id)
	if !ok {
		t.Fatal("forced trace not stored")
	}
	if len(got.Spans) != 1 || got.Spans[0].Duration != time.Second || got.Spans[0].Status != 200 {
		t.Fatalf("forced trace = %+v", got.Spans)
	}
}

func TestSampleRates(t *testing.T) {
	if NewTracer(0, nil).Sample() {
		t.Fatal("rate 0 sampled")
	}
	always := NewTracer(1, nil)
	for i := 0; i < 100; i++ {
		if !always.Sample() {
			t.Fatal("rate 1 skipped")
		}
	}
	half := NewTracer(0.5, nil)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if half.Sample() {
			hits++
		}
	}
	if hits < n/2-n/10 || hits > n/2+n/10 {
		t.Fatalf("rate 0.5 sampled %d of %d", hits, n)
	}
}

func TestNilTracerAndNilSpanAreTotal(t *testing.T) {
	var tr *Tracer
	if tr.Sample() {
		t.Fatal("nil tracer sampled")
	}
	if tr.StartRoot("r", TraceID{}, SpanID{}) != nil {
		t.Fatal("nil tracer minted a span")
	}
	if !tr.CaptureRoot(TraceID{}, "r", time.Now(), 0, 200).IsZero() {
		t.Fatal("nil tracer captured a trace")
	}
	var s *Span
	s.SetAttr("k", "v")
	s.SetInt("k", 1)
	s.SetStatus(200)
	s.SetError(errors.New("x"))
	s.Event("e")
	s.AddChild("c", time.Now(), 0)
	s.End()
	if s.StartChild("c") != nil {
		t.Fatal("nil span spawned a child")
	}
	if !s.TraceID().IsZero() || !s.ID().IsZero() {
		t.Fatal("nil span has identity")
	}
	ctx, sp := StartSpan(context.Background(), "x")
	if sp != nil || FromContext(ctx) != nil {
		t.Fatal("StartSpan invented a span on a bare context")
	}
}

// TestUnsampledPathAllocsZero pins the tentpole's fast-path contract:
// when the request is not sampled, every tracing primitive a request
// crosses — the head sampling decision, traceparent parsing, span
// lookup and child start, and all nil-span method calls — costs zero
// allocations.
func TestUnsampledPathAllocsZero(t *testing.T) {
	tr := NewTracer(0.5, NewStore(16)) // a real rate: the decision itself must not alloc
	ctx := context.Background()
	header := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = tr.Sample()
	}); allocs != 0 {
		t.Fatalf("Sample allocates %v per run", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_, _ = ParseTraceparent(header)
		_, _ = ParseTraceparent("garbage")
	}); allocs != 0 {
		t.Fatalf("ParseTraceparent allocates %v per run", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_, _ = ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	}); allocs != 0 {
		t.Fatalf("ParseTraceID allocates %v per run", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := StartSpan(ctx, "oracle.dist")
		sp.SetInt("u", 3)
		sp.Event("row_cache.hit")
		sp.SetError(nil)
		sp.End()
		_, sp2 := StartSpan(ctx2, "tier.pread")
		sp2.End()
		_ = FromContext(ctx2)
	}); allocs != 0 {
		t.Fatalf("unsampled span path allocates %v per run", allocs)
	}
}

func TestFormatInt(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want string
	}{{0, "0"}, {7, "7"}, {-1, "-1"}, {1234567890123, "1234567890123"}, {-9223372036854775808, "-9223372036854775808"}} {
		if got := formatInt(tc.v); got != tc.want {
			t.Errorf("formatInt(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// BenchmarkSpanSampled and BenchmarkSpanUnsampled price the tracing layer
// from both sides of the sampling decision: the span work a sampled request
// does (root, child, attributes, both Ends, into a store) against the
// passthrough every unsampled request pays (the coin flip plus a StartSpan
// on a span-free context). scripts/benchgate.sh requires the unsampled path
// to stay allocation-free and at least 10× cheaper.
func BenchmarkSpanSampled(b *testing.B) {
	tracer := NewTracer(1, NewStore(64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := tracer.StartRoot("GET /v1/dist", TraceID{}, SpanID{})
		root.SetInt("u", int64(i))
		_, child := StartSpan(ContextWith(context.Background(), root), "oracle.dist")
		child.SetInt("version", 1)
		child.End()
		root.SetStatus(200)
		root.End()
	}
}

func BenchmarkSpanUnsampled(b *testing.B) {
	off := NewTracer(0, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if off.Sample() {
			b.Fatal("sample rate 0 sampled a request")
		}
		_, sp := StartSpan(ctx, "oracle.dist")
		sp.End()
	}
}
