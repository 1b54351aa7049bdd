package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

// discardResponse is a reusable ResponseWriter that drops the body, so the
// read-handler benchmarks measure the server and not a recorder.
type discardResponse struct {
	h      http.Header
	status int
}

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) WriteHeader(status int)      { w.status = status }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// benchServer returns an in-process server hosting tenant "g": a resident
// n=256 random graph built by the exact test backend.
func benchServer(b *testing.B) *server {
	b.Helper()
	cfg := testConfig(defaultLimits())
	cfg.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := newServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	g := cliqueapsp.RandomGraph(256, 20, 1)
	var edges strings.Builder
	for i, e := range g.Edges() {
		if i > 0 {
			edges.WriteByte(',')
		}
		fmt.Fprintf(&edges, "[%d,%d,%d]", e.U, e.V, e.W)
	}
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(`{"name":"g"}`)),
		httptest.NewRequest(http.MethodPost, "/v1/graphs/g/graph?wait=1",
			strings.NewReader(fmt.Sprintf(`{"n":%d,"edges":[%s]}`, g.N(), edges.String()))),
	} {
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code >= 300 {
			b.Fatalf("%s %s: %d %s", req.Method, req.URL, rec.Code, rec.Body)
		}
	}
	return s
}

// benchServe serves req (with body re-read on every call) b.N times.
func benchServe(b *testing.B, s *server, req *http.Request, body []byte) {
	b.Helper()
	rd := bytes.NewReader(body)
	w := &discardResponse{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		w.status = 0
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("%s %s: status %d", req.Method, req.URL, w.status)
		}
	}
	serve() // warm the metric series and the pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

func BenchmarkServeDist(b *testing.B) {
	s := benchServer(b)
	benchServe(b, s, httptest.NewRequest(http.MethodGet, "/v1/graphs/g/dist?u=3&v=250", nil), nil)
}

func BenchmarkServeBatch64(b *testing.B) {
	s := benchServer(b)
	var body strings.Builder
	body.WriteString(`{"pairs":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, "[%d,%d]", (i*37)%256, (i*101+7)%256)
	}
	body.WriteString(`]}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs/g/batch", nil)
	req.Header.Set("Content-Type", "application/json")
	benchServe(b, s, req, []byte(body.String()))
}

func BenchmarkServePath(b *testing.B) {
	s := benchServer(b)
	benchServe(b, s, httptest.NewRequest(http.MethodGet, "/v1/graphs/g/path?u=3&v=250", nil), nil)
}
