package main

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"

	"github.com/congestedclique/cliqueapsp/oracle"
	"github.com/congestedclique/cliqueapsp/store"
)

// keyFile is the on-disk format of -keys:
//
//	{
//	  "admin": "change-me",
//	  "tenants": {
//	    "alpha": {"key": "alpha-key",
//	              "quota": {"requests_per_sec": 50, "answers_per_sec": 10000}}
//	  }
//	}
//
// The admin key may touch every route (and is the only key that can create
// or delete tenants); a tenant key may only touch its own
// /v1/graphs/{name}(/...) routes. Quotas listed here are applied to their
// tenants at boot and on every reload.
type keyFile struct {
	Admin   string               `json:"admin"`
	Tenants map[string]tenantKey `json:"tenants"`
}

type tenantKey struct {
	Key   string        `json:"key"`
	Quota *oracle.Quota `json:"quota,omitempty"`
}

// ident is who a presented key belongs to.
type ident struct {
	admin  bool
	tenant string // the one tenant a non-admin key is scoped to
}

// keyHash is what the ring stores and compares: keys are hashed on load and
// on every lookup, so comparisons are constant-time regardless of key
// length and plaintext secrets never sit in long-lived server state.
type keyHash [sha256.Size]byte

func hashKey(key string) keyHash { return sha256.Sum256([]byte(key)) }

// keyring is ccserve's authentication state: the admin key and per-tenant
// keys from the -keys file, plus an overlay of keys registered at runtime
// through POST /v1/graphs. Reload (SIGHUP) atomically replaces the file
// layer and leaves the overlay alone; a reload that fails to parse keeps
// the previous keys serving, so a bad edit can't lock everyone out.
type keyring struct {
	path string
	log  *slog.Logger

	mu     sync.RWMutex
	admin  *keyHash
	file   map[string]keyHash // tenant → key, from the -keys file
	api    map[string]keyHash // tenant → key, registered via the API
	quotas map[string]oracle.Quota
}

// loadKeyring reads and validates path. Unlike reload, a broken file at
// boot is fatal: starting open because the config was bad would silently
// expose every tenant.
func loadKeyring(path string, log *slog.Logger) (*keyring, error) {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	k := &keyring{path: path, log: log, api: make(map[string]keyHash)}
	if err := k.reload(); err != nil {
		return nil, err
	}
	return k, nil
}

// parseKeyFile validates the raw bytes of a key file.
func parseKeyFile(raw []byte) (*keyFile, error) {
	var kf keyFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&kf); err != nil {
		return nil, fmt.Errorf("parsing key file: %w", err)
	}
	if err := expectEOF(dec); err != nil {
		return nil, fmt.Errorf("parsing key file: %w", err)
	}
	if kf.Admin == "" && len(kf.Tenants) == 0 {
		return nil, fmt.Errorf("key file defines no keys (want \"admin\" and/or \"tenants\")")
	}
	// Every key must resolve to exactly one identity: a key shared by two
	// tenants would be scoped by map-iteration luck, request by request.
	owner := make(map[string]string, len(kf.Tenants))
	for name, tk := range kf.Tenants {
		if !store.ValidTenantName(name) {
			return nil, fmt.Errorf("key file tenant %q: want 1-64 of [a-zA-Z0-9._-], starting alphanumeric", name)
		}
		if tk.Key == "" {
			return nil, fmt.Errorf("key file tenant %q: empty key", name)
		}
		if tk.Key == kf.Admin {
			return nil, fmt.Errorf("key file tenant %q: reuses the admin key", name)
		}
		if other, dup := owner[tk.Key]; dup {
			a, b := name, other
			if a > b {
				a, b = b, a
			}
			return nil, fmt.Errorf("key file tenants %q and %q share a key", a, b)
		}
		owner[tk.Key] = name
		if tk.Quota != nil {
			if err := tk.Quota.Validate(); err != nil {
				return nil, fmt.Errorf("key file tenant %q: %v", name, err)
			}
		}
	}
	return &kf, nil
}

// reload re-reads the key file and atomically swaps the file-sourced keys
// and quotas. Runtime-registered keys (the api overlay) survive.
func (k *keyring) reload() error {
	raw, err := os.ReadFile(k.path)
	if err != nil {
		return fmt.Errorf("reading key file: %w", err)
	}
	kf, err := parseKeyFile(raw)
	if err != nil {
		return err
	}
	file := make(map[string]keyHash, len(kf.Tenants))
	quotas := make(map[string]oracle.Quota, len(kf.Tenants))
	for name, tk := range kf.Tenants {
		file[name] = hashKey(tk.Key)
		if tk.Quota != nil {
			quotas[name] = *tk.Quota
		}
	}
	var admin *keyHash
	if kf.Admin != "" {
		h := hashKey(kf.Admin)
		admin = &h
	}
	k.mu.Lock()
	k.admin, k.file, k.quotas = admin, file, quotas
	k.mu.Unlock()
	k.log.Info("key file loaded", "path", k.path, "admin", admin != nil,
		"tenant_keys", len(file), "quotas", len(quotas))
	return nil
}

// identify resolves a presented key to its identity. Every comparison is a
// constant-time match of SHA-256 digests.
func (k *keyring) identify(key string) (ident, bool) {
	h := hashKey(key)
	k.mu.RLock()
	defer k.mu.RUnlock()
	if k.admin != nil && subtle.ConstantTimeCompare(h[:], k.admin[:]) == 1 {
		return ident{admin: true}, true
	}
	for _, layer := range []map[string]keyHash{k.file, k.api} {
		for name, kh := range layer {
			if subtle.ConstantTimeCompare(h[:], kh[:]) == 1 {
				return ident{tenant: name}, true
			}
		}
	}
	return ident{}, false
}

// quotaFor returns the file-configured quota for a tenant, if any.
func (k *keyring) quotaFor(name string) (oracle.Quota, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	q, ok := k.quotas[name]
	return q, ok
}

// quotaTenants lists every tenant the file configures a quota for.
func (k *keyring) quotaTenants() []string {
	k.mu.RLock()
	names := make([]string, 0, len(k.quotas))
	for name := range k.quotas {
		names = append(names, name)
	}
	k.mu.RUnlock()
	sort.Strings(names)
	return names
}

// setAPIKey registers (or replaces) a runtime per-tenant key; it lives in
// the overlay, so key-file reloads do not drop it.
func (k *keyring) setAPIKey(tenant, key string) {
	k.mu.Lock()
	k.api[tenant] = hashKey(key)
	k.mu.Unlock()
}

// dropAPIKey forgets a runtime-registered key (tenant deleted).
func (k *keyring) dropAPIKey(tenant string) {
	k.mu.Lock()
	delete(k.api, tenant)
	k.mu.Unlock()
}

// bearerToken extracts the key from "Authorization: Bearer <key>".
func bearerToken(r *http.Request) (string, bool) {
	auth := r.Header.Get("Authorization")
	token, ok := cutPrefixFold(auth, "Bearer ")
	token = strings.TrimSpace(token)
	return token, ok && token != ""
}

// cutPrefixFold is strings.CutPrefix with an ASCII-case-insensitive scheme
// match ("bearer x" is as valid as "Bearer x").
func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || !strings.EqualFold(s[:len(prefix)], prefix) {
		return s, false
	}
	return s[len(prefix):], true
}

// tenantRoute maps a request to the tenant a non-admin key must be scoped
// to, or reports false for admin-only surfaces (tenant create/delete,
// listings, global stats, and any path outside the serving API).
func tenantRoute(r *http.Request) (string, bool) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/graphs/")
	if !ok || rest == "" {
		return "", false
	}
	if r.Method == http.MethodDelete {
		return "", false // deleting tenants is the admin's call
	}
	name, op, _ := strings.Cut(rest, "/")
	if op == "promote" {
		// Promotion claims fleet memory back from other tenants — an
		// operator policy decision, not something a tenant key may trigger.
		return "", false
	}
	return name, true
}

// authorize gates one request. With no keyring (no -keys file) everything
// is open — today's behavior. /healthz stays open regardless: liveness
// probes don't carry credentials, and an unauthenticated caller learns only
// that the process is up.
func (s *server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if s.auth == nil || r.URL.Path == "/healthz" {
		return true
	}
	key, ok := bearerToken(r)
	if !ok {
		s.unauthorized(w, "missing Authorization: Bearer key")
		return false
	}
	id, ok := s.auth.identify(key)
	if !ok {
		s.unauthorized(w, "unknown key")
		return false
	}
	if id.admin {
		return true
	}
	tenant, scoped := tenantRoute(r)
	if !scoped {
		s.writeJSON(w, http.StatusForbidden,
			errorBody{Error: fmt.Sprintf("%s %s requires the admin key", r.Method, r.URL.Path)})
		return false
	}
	if tenant != id.tenant {
		s.writeJSON(w, http.StatusForbidden,
			errorBody{Error: fmt.Sprintf("key is scoped to tenant %q, not %q", id.tenant, tenant)})
		return false
	}
	return true
}

func (s *server) unauthorized(w http.ResponseWriter, why string) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="ccserve"`)
	s.writeJSON(w, http.StatusUnauthorized, errorBody{Error: why})
}

// applyFileQuotas reconciles the key file's quotas onto the fleet — hosted
// AND evicted tenants (Manager.SetQuota updates the config a rehydration
// restores, so an eviction window cannot swallow a quota change), without
// refilling the buckets of tenants whose quota is unchanged. Called at
// boot (after the fleet restore) and after each reload. Tenants the file
// stops mentioning keep their last quota: the file is a source of quota
// config, not the exclusive owner of it (quotas can also arrive via
// POST /v1/graphs), so "absent" cannot be read as "remove".
func (s *server) applyFileQuotas() {
	if s.auth == nil {
		return
	}
	for _, name := range s.auth.quotaTenants() {
		q, _ := s.auth.quotaFor(name)
		if err := s.mgr.SetQuota(name, q); err != nil {
			s.log.Warn("applying key-file quota failed", "tenant", name, "err", err)
		}
	}
}

// ReloadKeys re-reads the -keys file (SIGHUP). On failure the previous
// keys keep serving.
func (s *server) ReloadKeys() {
	if s.auth == nil {
		return
	}
	if err := s.auth.reload(); err != nil {
		s.log.Error("key reload failed, keeping previous keys", "err", err)
		return
	}
	s.applyFileQuotas()
}
