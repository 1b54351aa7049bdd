package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	tenantName = "bench"
	adminKey   = "perfbench-admin"
	tenantKey  = "perfbench-tenant"
	// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
	// it is 100 on every Linux architecture Go supports.
	clkTck = 100
)

// server is one ccserve child process on a loopback port.
type server struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	exited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
	client  *http.Client
}

// writeKeys writes the -keys file: an admin key for set-up and the tenant's
// own key, with no quota, so auth is on the measured path and 429s cannot
// happen.
func writeKeys(dir string) (string, error) {
	path := filepath.Join(dir, "keys.json")
	raw, err := json.Marshal(map[string]any{
		"admin":   adminKey,
		"tenants": map[string]any{tenantName: map[string]string{"key": tenantKey}},
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o600)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches ccserve with GOMAXPROCS pinned to procs and returns
// once it answers HTTP. Its log goes to a file in dir, shown on failure.
func startServer(bin, dir, keys string, procs int, flags ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(dir, "ccserve-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-keys", keys,
		"-loglevel", "warn"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ccserve: %w", err)
	}
	s := &server{
		cmd:     cmd,
		base:    fmt.Sprintf("http://127.0.0.1:%d", port),
		logPath: logf.Name(),
		exited:  make(chan struct{}),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 4,
				DisableCompression:  true,
			},
		},
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("ccserve exited during start-up: %v\n%s", s.waitErr, s.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("ccserve did not answer within 30s\n%s", s.logTail())
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited within 15 seconds. It returns once the process is gone.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
}

func (s *server) logTail() string {
	raw, _ := os.ReadFile(s.logPath)
	if len(raw) > 4096 {
		raw = raw[len(raw)-4096:]
	}
	return string(raw)
}

// cpuTicks reads the child's user+system CPU time from /proc/<pid>/stat,
// in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return ut + st, nil
}

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   []byte
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, bytes.TrimSpace(e.body))
}

// do sends one request and reads the whole response into buf. A non-2xx
// status is returned as an *httpError carrying the body.
func (s *server) do(method, path, key string, body []byte, buf *bytes.Buffer) error {
	return s.doWithID(method, path, key, body, buf, "")
}

// doWithID is do with an X-Request-Id header when id is not empty; ccserve
// adopts a 32-hex request ID as the trace ID of a sampled request.
func (s *server) doWithID(method, path, key string, body []byte, buf *bytes.Buffer, id string) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{status: resp.StatusCode, body: append([]byte(nil), buf.Bytes()...)}
	}
	return nil
}

// doJSON sends one request and decodes the response into out.
func (s *server) doJSON(method, path, key string, body []byte, out any) error {
	var buf bytes.Buffer
	if err := s.do(method, path, key, body, &buf); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// createTenant registers the benchmark tenant with a pinned seed.
func (s *server) createTenant(alg string, seed int64) error {
	body, _ := json.Marshal(map[string]any{"name": tenantName, "algorithm": alg, "seed": seed})
	return s.doJSON(http.MethodPost, "/v1/graphs", adminKey, body, nil)
}

type writeResp struct {
	Version uint64 `json:"version"`
	Ready   bool   `json:"ready"`
}

// upload sends a graph with ?wait=1 and returns the published version.
func (s *server) upload(body []byte) (uint64, error) {
	var r writeResp
	if err := s.doJSON(http.MethodPost, tenantPath("/graph?wait=1"), tenantKey, body, &r); err != nil {
		return 0, err
	}
	if !r.Ready {
		return 0, fmt.Errorf("upload v%d answered before it was published", r.Version)
	}
	return r.Version, nil
}

// liveHeap forces a GC in ccserve and returns the heap it still holds
// (runtime.MemStats.HeapAlloc, from the same profile response) and its
// GOMAXPROCS.
func (s *server) liveHeap() (heap uint64, procs int, err error) {
	var buf bytes.Buffer
	if err := s.do(http.MethodGet, "/debug/pprof/heap?gc=1&debug=1", adminKey, nil, &buf); err != nil {
		return 0, 0, err
	}
	const key = "# HeapAlloc = "
	i := bytes.Index(buf.Bytes(), []byte(key))
	if i < 0 {
		return 0, 0, errors.New("heap profile without HeapAlloc")
	}
	rest := buf.Bytes()[i+len(key):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	if heap, err = strconv.ParseUint(string(rest), 10, 64); err != nil {
		return 0, 0, err
	}
	var st struct {
		Process struct {
			GOMAXPROCS int `json:"gomaxprocs"`
		} `json:"process"`
	}
	err = s.doJSON(http.MethodGet, "/v1/stats", adminKey, nil, &st)
	return heap, st.Process.GOMAXPROCS, err
}

// tenantStats reads the tenant's counters.
func (s *server) tenantStats() (tenantCounters, error) {
	var st struct {
		Tier   string         `json:"tier"`
		Oracle tenantCounters `json:"oracle"`
	}
	err := s.doJSON(http.MethodGet, tenantPath("/stats"), tenantKey, nil, &st)
	st.Oracle.Tier = st.Tier
	return st.Oracle, err
}

// tenantCounters are the /v1/graphs/{name}/stats fields the benchmark reads.
type tenantCounters struct {
	Tier            string `json:"-"`
	Version         uint64 `json:"version"`
	Repairs         uint64 `json:"repairs"`
	RepairFallbacks uint64 `json:"repair_fallbacks"`
	CoalescedDeltas uint64 `json:"coalesced_deltas"`
}
