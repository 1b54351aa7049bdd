package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeKeys(t *testing.T, dir, content string) string {
	t.Helper()
	path := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestKeyFileParsing(t *testing.T) {
	dir := t.TempDir()
	for name, bad := range map[string]string{
		"empty object":    `{}`,
		"no keys at all":  `{"tenants":{}}`,
		"not json":        `admin=topsecret`,
		"trailing data":   `{"admin":"a"}{"admin":"b"}`,
		"unknown field":   `{"admin":"a","tennants":{}}`,
		"empty tenant":    `{"tenants":{"alpha":{"key":""}}}`,
		"bad tenant name": `{"tenants":{"bad/name":{"key":"k"}}}`,
		"admin reuse":     `{"admin":"k","tenants":{"alpha":{"key":"k"}}}`,
		"shared key":      `{"tenants":{"alpha":{"key":"k"},"beta":{"key":"k"}}}`,
		"negative quota":  `{"tenants":{"alpha":{"key":"k","quota":{"requests_per_sec":-1}}}}`,
	} {
		path := writeKeys(t, dir, bad)
		if _, err := loadKeyring(path, testLogger(t)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	if _, err := loadKeyring(filepath.Join(dir, "nope.json"), testLogger(t)); err == nil {
		t.Error("missing file loaded without error")
	}

	path := writeKeys(t, dir,
		`{"admin":"root","tenants":{"alpha":{"key":"ka","quota":{"requests_per_sec":5}},"beta":{"key":"kb"}}}`)
	k, err := loadKeyring(path, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := k.identify("root"); !ok || !id.admin {
		t.Fatalf("admin key identified as %+v, %v", id, ok)
	}
	if id, ok := k.identify("ka"); !ok || id.admin || id.tenant != "alpha" {
		t.Fatalf("alpha key identified as %+v, %v", id, ok)
	}
	if _, ok := k.identify("stranger"); ok {
		t.Fatal("unknown key accepted")
	}
	if _, ok := k.identify(""); ok {
		t.Fatal("empty key accepted")
	}
	if q, ok := k.quotaFor("alpha"); !ok || q.RequestsPerSec != 5 {
		t.Fatalf("alpha quota %+v, %v", q, ok)
	}
	if _, ok := k.quotaFor("beta"); ok {
		t.Fatal("beta has no quota in the file")
	}
}

func TestKeyringReload(t *testing.T) {
	dir := t.TempDir()
	path := writeKeys(t, dir, `{"admin":"old-admin","tenants":{"alpha":{"key":"old-ka"}}}`)
	k, err := loadKeyring(path, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	// Runtime-registered keys live in the overlay.
	k.setAPIKey("gamma", "kg")

	// Rotation: the new file replaces admin and tenant keys.
	writeKeys(t, dir, `{"admin":"new-admin","tenants":{"alpha":{"key":"new-ka","quota":{"answers_per_sec":9}}}}`)
	if err := k.reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.identify("old-admin"); ok {
		t.Fatal("rotated admin key still accepted")
	}
	if id, ok := k.identify("new-admin"); !ok || !id.admin {
		t.Fatalf("new admin key: %+v, %v", id, ok)
	}
	if _, ok := k.identify("old-ka"); ok {
		t.Fatal("rotated tenant key still accepted")
	}
	if q, ok := k.quotaFor("alpha"); !ok || q.AnswersPerSec != 9 {
		t.Fatalf("reloaded quota %+v, %v", q, ok)
	}
	// The API overlay survived the reload.
	if id, ok := k.identify("kg"); !ok || id.tenant != "gamma" {
		t.Fatalf("overlay key after reload: %+v, %v", id, ok)
	}
	k.dropAPIKey("gamma")
	if _, ok := k.identify("kg"); ok {
		t.Fatal("dropped overlay key still accepted")
	}

	// A broken rewrite must NOT lock anyone out: reload fails, old keys serve.
	writeKeys(t, dir, `{"admin":`)
	if err := k.reload(); err == nil {
		t.Fatal("broken key file reloaded without error")
	}
	if id, ok := k.identify("new-admin"); !ok || !id.admin {
		t.Fatalf("keys lost after failed reload: %+v, %v", id, ok)
	}
}

func TestBearerToken(t *testing.T) {
	mk := func(h string) *http.Request {
		r, _ := http.NewRequest(http.MethodGet, "/v1/stats", nil)
		if h != "" {
			r.Header.Set("Authorization", h)
		}
		return r
	}
	for header, want := range map[string]string{
		"Bearer secret":  "secret",
		"bearer secret":  "secret", // scheme is case-insensitive
		"Bearer  padded": "padded",
	} {
		if got, ok := bearerToken(mk(header)); !ok || got != want {
			t.Errorf("bearerToken(%q) = %q, %v; want %q", header, got, ok, want)
		}
	}
	for _, header := range []string{"", "Basic dXNlcjpwdw==", "Bearer", "Bearer   "} {
		if tok, ok := bearerToken(mk(header)); ok {
			t.Errorf("bearerToken(%q) accepted %q", header, tok)
		}
	}
}

func TestTenantRouteScoping(t *testing.T) {
	mk := func(method, path string) *http.Request {
		r, err := http.NewRequest(method, "http://x"+path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tc := range []struct {
		method, path string
		tenant       string
		scoped       bool
	}{
		{http.MethodGet, "/v1/graphs/alpha", "alpha", true},
		{http.MethodGet, "/v1/graphs/alpha/dist", "alpha", true},
		{http.MethodPost, "/v1/graphs/alpha/batch", "alpha", true},
		{http.MethodPost, "/v1/graphs/alpha/graph", "alpha", true},
		{http.MethodGet, "/v1/graphs/alpha/stats", "alpha", true},
		// Admin-only surfaces.
		{http.MethodGet, "/v1/graphs", "", false},
		{http.MethodPost, "/v1/graphs", "", false},
		{http.MethodDelete, "/v1/graphs/alpha", "", false},
		{http.MethodGet, "/v1/stats", "", false},
		{http.MethodGet, "/v1/unknown", "", false},
		// The single-graph paths of earlier versions name no tenant.
		{http.MethodGet, "/v1/dist", "", false},
		{http.MethodPost, "/v1/batch", "", false},
		{http.MethodGet, "/v1/path", "", false},
		{http.MethodPost, "/v1/graph", "", false},
	} {
		tenant, scoped := tenantRoute(mk(tc.method, tc.path))
		if tenant != tc.tenant || scoped != tc.scoped {
			t.Errorf("tenantRoute(%s %s) = %q, %v; want %q, %v",
				tc.method, tc.path, tenant, scoped, tc.tenant, tc.scoped)
		}
	}
}
