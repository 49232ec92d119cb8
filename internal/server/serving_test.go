package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// Serving-plane regression tests: result cache, request coalescing,
// snapshot registry reads, and per-tenant admission — all through the
// HTTP surface, since the invariants they pin are end-to-end ones.

// postTenant posts a JSON body with a tenant header.
func postTenant(t *testing.T, url, tenant, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, []byte(sb.String())
}

// waitFor polls cond until true or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// stripVolatile removes the per-request fields from a decoded response so
// result bodies can be compared for bit-identity of the shared part.
func stripVolatile(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	delete(m, "wall_ns")
	delete(m, "cached")
	delete(m, "coalesced")
	return m
}

func TestCacheHitRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	body := fmt.Sprintf(matmulQuery, "")

	resp, cold := postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query = %d %s", resp.StatusCode, cold)
	}
	if strings.Contains(string(cold), `"cached":true`) {
		t.Fatalf("cold query claims cached: %s", cold)
	}

	resp, warm := postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query = %d %s", resp.StatusCode, warm)
	}
	if !strings.Contains(string(warm), `"cached":true`) {
		t.Fatalf("warm query not served from cache: %s", warm)
	}
	coldM, warmM := stripVolatile(t, cold), stripVolatile(t, warm)
	coldJ, _ := json.Marshal(coldM)
	warmJ, _ := json.Marshal(warmM)
	if string(coldJ) != string(warmJ) {
		t.Fatalf("cached result differs from executed:\n cold %s\n warm %s", coldJ, warmJ)
	}
	if got := s.Metrics().Snapshot(); got.Completed != 1 || got.CacheServed != 1 {
		t.Fatalf("completed=%d cache_served=%d, want 1/1", got.Completed, got.CacheServed)
	}
	if cs := s.CacheStats(); cs.Hits != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit, 1 entry", cs)
	}

	// Re-registering a referenced dataset invalidates its cached results
	// and bumps the version the next query pins.
	resp, out := postJSON(t, ts.URL+"/v1/datasets", `{"name":"R1","arity":2,"rows":[[2,0,7],[5,1,7]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register = %d %s", resp.StatusCode, out)
	}
	if cs := s.CacheStats(); cs.Invalidations != 1 || cs.Entries != 0 {
		t.Fatalf("cache stats after re-register = %+v, want 1 invalidation, 0 entries", cs)
	}
	resp, fresh := postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-register query = %d %s", resp.StatusCode, fresh)
	}
	if strings.Contains(string(fresh), `"cached":true`) {
		t.Fatalf("query after re-registration served stale cache: %s", fresh)
	}
	if !strings.Contains(string(fresh), `"dataset_version":3`) {
		t.Fatalf("query should pin version 3 after third registration: %s", fresh)
	}
}

func TestCacheBypassExecutesButWrites(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	bypass := fmt.Sprintf(matmulQuery, `,"options":{"cache":"bypass"}`)
	for i := 0; i < 2; i++ {
		resp, out := postJSON(t, ts.URL+"/v2/query", bypass)
		if resp.StatusCode != http.StatusOK || strings.Contains(string(out), `"cached":true`) {
			t.Fatalf("bypass query %d = %d %s", i, resp.StatusCode, out)
		}
	}
	// Both bypass runs executed, but the second one's write means a
	// default-mode reader now hits.
	resp, out := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, ""))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"cached":true`) {
		t.Fatalf("default query after bypass = %d %s, want cache hit", resp.StatusCode, out)
	}
	if got := s.Metrics().Snapshot(); got.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (both bypass runs executed)", got.Completed)
	}
}

func TestCacheOffTouchesNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	off := fmt.Sprintf(matmulQuery, `,"options":{"cache":"off"}`)
	for i := 0; i < 2; i++ {
		resp, out := postJSON(t, ts.URL+"/v2/query", off)
		if resp.StatusCode != http.StatusOK || strings.Contains(string(out), `"cached":true`) {
			t.Fatalf("off query %d = %d %s", i, resp.StatusCode, out)
		}
	}
	if cs := s.CacheStats(); cs.Entries != 0 || cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("cache touched by off mode: %+v", cs)
	}
	if got := s.Metrics().Snapshot(); got.Completed != 2 {
		t.Fatalf("completed = %d, want 2", got.Completed)
	}
}

func TestBadCacheModeRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	resp, out := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, `,"options":{"cache":"sometimes"}`))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "cache mode") {
		t.Fatalf("bad cache mode = %d %s, want 400", resp.StatusCode, out)
	}
}

// TestCoalescedWaitersShareExecution pins the coalescing contract: N
// concurrent identical queries execute once, and every waiter's rows,
// stats and trace are bit-identical to each other and to an uncoalesced
// (bypass) execution of the same query.
func TestCoalescedWaitersShareExecution(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 1, MaxQueue: 8})
	registerMatMul(t, ts.URL)
	// Hold the whole capacity so the leader parks in the admission queue
	// and the joiners have an in-flight execution to coalesce onto.
	held, err := s.fair.Acquire(context.Background(), "occupier", 1)
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	body := fmt.Sprintf(matmulQuery, `,"options":{"trace":true}`)
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		resp, out := postJSON(t, ts.URL+"/v2/query", body)
		results <- result{resp.StatusCode, out}
	}
	wg.Add(1)
	go post()
	waitFor(t, "leader parked in admission queue", func() bool { return s.fair.Queued() == 1 })
	for i := 1; i < n; i++ {
		wg.Add(1)
		go post()
	}
	waitFor(t, "joiners attached to the flight", func() bool { return s.flight.Waiters() == n })
	s.fair.Release(held)
	wg.Wait()
	close(results)

	var bodies [][]byte
	coalesced := 0
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("coalesced query = %d %s", r.status, r.body)
		}
		if strings.Contains(string(r.body), `"coalesced":true`) {
			coalesced++
		}
		bodies = append(bodies, r.body)
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced responses = %d, want %d", coalesced, n-1)
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed != 1 || snap.Coalesced != n-1 {
		t.Fatalf("completed=%d coalesced=%d, want 1/%d", snap.Completed, snap.Coalesced, n-1)
	}

	// Bit-identity: all waiters against each other and against a fresh
	// uncoalesced execution.
	resp, solo := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, `,"options":{"trace":true,"cache":"bypass"}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bypass query = %d %s", resp.StatusCode, solo)
	}
	want, _ := json.Marshal(stripVolatile(t, solo))
	for i, b := range bodies {
		got, _ := json.Marshal(stripVolatile(t, b))
		if string(got) != string(want) {
			t.Fatalf("waiter %d result differs from uncoalesced run:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestWaiterDeadlineExpiresOnlyThatWaiter: a coalesced waiter whose
// deadline fires gets its own 504 while the shared execution keeps
// running and serves the remaining waiter.
func TestWaiterDeadlineExpiresOnlyThatWaiter(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 1, MaxQueue: 8})
	registerMatMul(t, ts.URL)
	held, err := s.fair.Acquire(context.Background(), "occupier", 1)
	if err != nil {
		t.Fatal(err)
	}

	leaderDone := make(chan []byte, 1)
	go func() {
		resp, out := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, ""))
		if resp.StatusCode != http.StatusOK {
			out = fmt.Appendf(nil, "status %d: %s", resp.StatusCode, out)
		}
		leaderDone <- out
	}()
	waitFor(t, "leader parked in admission queue", func() bool { return s.fair.Queued() == 1 })

	// The joiner shares the leader's key (deadline_ms is not part of the
	// result identity) but carries its own 50ms deadline.
	resp, out := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, `,"options":{"deadline_ms":50}`))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired waiter = %d %s, want 504", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), `"cause":"deadline"`) {
		t.Fatalf("expired waiter cause: %s", out)
	}
	if got := s.fair.Queued(); got != 1 {
		t.Fatalf("leader should still be queued after waiter expiry, queued=%d", got)
	}

	s.fair.Release(held)
	leaderBody := <-leaderDone
	if !strings.Contains(string(leaderBody), `"rows":[[6,0,1],[15,1,1]]`) {
		t.Fatalf("leader result after waiter expiry: %s", leaderBody)
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed != 1 || snap.Cancelled != 1 {
		t.Fatalf("completed=%d cancelled=%d, want 1/1", snap.Completed, snap.Cancelled)
	}
	for _, c := range snap.Cancel {
		if c.Name != "deadline" {
			t.Fatalf("cancel cause %q, want deadline only", c.Name)
		}
	}
}

// TestDrainCancelsQueuedSharedExecution: cancelling the server's base
// context during a drain cancels a queued shared execution, and its
// waiters see cause "drain".
func TestDrainCancelsQueuedSharedExecution(t *testing.T) {
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	s, ts := newTestServer(t, Config{Capacity: 1, MaxQueue: 8, BaseContext: baseCtx})
	registerMatMul(t, ts.URL)
	held, err := s.fair.Acquire(context.Background(), "occupier", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.fair.Release(held)

	done := make(chan result2, 1)
	go func() {
		resp, out := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, ""))
		done <- result2{resp.StatusCode, out}
	}()
	waitFor(t, "query parked in admission queue", func() bool { return s.fair.Queued() == 1 })

	s.SetDraining(true)
	cancelBase()
	r := <-done
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("drained waiter = %d %s, want 503", r.status, r.body)
	}
	if !strings.Contains(string(r.body), `"cause":"drain"`) || !strings.Contains(string(r.body), "cancelled (drain)") {
		t.Fatalf("drained waiter body: %s", r.body)
	}
	waitFor(t, "drain cancellation recorded", func() bool {
		for _, c := range s.Metrics().Snapshot().Cancel {
			if c.Name == "drain" && c.Count == 1 {
				return true
			}
		}
		return false
	})
}

type result2 struct {
	status int
	body   []byte
}

// TestRegistrationNeverBlocksQueries: continuous re-registration under
// query load produces zero failed queries — every query resolves against
// a consistent snapshot.
func TestRegistrationNeverBlocksQueries(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	const queriers, queriesEach, registrations = 2, 40, 25
	var wg sync.WaitGroup
	errs := make(chan string, queriers*queriesEach+registrations)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				resp, out := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, ""))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("query: %d %s", resp.StatusCode, out)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < registrations; i++ {
			resp, out := postJSON(t, ts.URL+"/v1/datasets", `{"name":"R2","arity":2,"rows":[[3,7,1]]}`)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("register: %d %s", resp.StatusCode, out)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got, want := s.Registry().Version(), uint64(2+registrations); got != want {
		t.Fatalf("registry version = %d, want %d", got, want)
	}
}

// TestRegistrationReportsItsOwnVersion: Put returns the version of the
// Dataset it stored, and concurrent re-registrations of one name each
// answer with their own — 64 writers, 64 distinct response versions (a
// handler that re-reads the registry after Put reports another writer's).
func TestRegistrationReportsItsOwnVersion(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	v, err := s.Registry().Put("R", 1, GenerateRows(1, 3, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ds, ok := s.Registry().Get("R"); !ok || ds.Version != v || s.Registry().Version() != v {
		t.Fatalf("Put returned version %d, stored %+v in view %d", v, ds, s.Registry().Version())
	}

	const writers = 64
	versions := make([]uint64, writers)
	var wg sync.WaitGroup
	for i := range versions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postJSON(t, ts.URL+"/v1/datasets", fmt.Sprintf(`{"name":"R","arity":1,"rows":[[1,%d]]}`, i))
			var ack DatasetResponse
			if err := json.Unmarshal(out, &ack); err != nil || resp.StatusCode != http.StatusOK || ack.Rows != 1 {
				t.Errorf("register: %d %s (%v)", resp.StatusCode, out, err)
			}
			versions[i] = ack.Version
		}()
	}
	wg.Wait()
	slices.Sort(versions)
	for i, got := range versions {
		if want := v + 1 + uint64(i); got != want {
			t.Fatalf("response versions %v: want the %d distinct versions %d..%d", versions, writers, v+1, v+writers)
		}
	}
}

// TestTenantQuotaAndIsolation: a tenant that fills its own queue share is
// shed with 429 while another tenant still queues and completes.
func TestTenantQuotaAndIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 1, MaxQueue: 8, TenantQueue: 2})
	registerMatMul(t, ts.URL)
	held, err := s.fair.Acquire(context.Background(), "occupier", 1)
	if err != nil {
		t.Fatal(err)
	}

	// cache off so each request is an independent admission, not a coalesce.
	off := fmt.Sprintf(matmulQuery, `,"options":{"cache":"off"}`)
	var wg sync.WaitGroup
	statuses := make(chan int, 3)
	enqueue := func(tenant string, wantQueued int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postTenant(t, ts.URL+"/v2/query", tenant, off)
			statuses <- resp.StatusCode
		}()
		waitFor(t, fmt.Sprintf("%s queue depth %d", tenant, wantQueued), func() bool {
			return s.fair.QueuedFor(tenant) == wantQueued
		})
	}
	enqueue("noisy", 1)
	enqueue("noisy", 2)

	// Third noisy request exceeds the tenant quota: shed immediately.
	resp, out := postTenant(t, ts.URL+"/v2/query", "noisy", off)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota = %d %s, want 429", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), `"cause":"queue_full"`) || !strings.Contains(string(out), "noisy") {
		t.Fatalf("over-quota body: %s", out)
	}

	// The quiet tenant still has queue room.
	enqueue("quiet", 1)

	s.fair.Release(held)
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("queued query = %d, want 200", st)
		}
	}
	snap := s.Metrics().Snapshot()
	shed := map[string]int64{}
	for _, c := range snap.TenantShed {
		shed[c.Name] = c.Count
	}
	if shed["noisy"] != 1 || shed["quiet"] != 0 {
		t.Fatalf("tenant_shed = %v, want noisy:1 only", snap.TenantShed)
	}
	served := map[string]int64{}
	for _, c := range snap.TenantServed {
		served[c.Name] = c.Count
	}
	if served["noisy"] != 2 || served["quiet"] != 1 {
		t.Fatalf("tenant_served = %v, want noisy:2 quiet:1", snap.TenantServed)
	}
}

func TestTenantHeaderValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	body := fmt.Sprintf(matmulQuery, "")
	for _, bad := range []string{"has space", "semi;colon", strings.Repeat("x", 65)} {
		resp, out := postTenant(t, ts.URL+"/v2/query", bad, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tenant %q = %d %s, want 400", bad, resp.StatusCode, out)
		}
		if !strings.Contains(string(out), `"cause":"bad_request"`) {
			t.Fatalf("tenant %q error body: %s", bad, out)
		}
	}
	resp, out := postTenant(t, ts.URL+"/v2/query", "team-a.prod_1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid tenant = %d %s", resp.StatusCode, out)
	}
}

// TestAccessLogEntries pins the structured access log: one entry per
// query with tenant, engine, version, cache and outcome fields.
func TestAccessLogEntries(t *testing.T) {
	var mu sync.Mutex
	var entries []AccessEntry
	cfg := Config{AccessLog: func(e AccessEntry) {
		mu.Lock()
		entries = append(entries, e)
		mu.Unlock()
	}}
	_, ts := newTestServer(t, cfg)
	registerMatMul(t, ts.URL)
	body := fmt.Sprintf(matmulQuery, "")

	postTenant(t, ts.URL+"/v2/query", "acme", body) // miss, executes
	postTenant(t, ts.URL+"/v2/query", "acme", body) // hit
	postJSON(t, ts.URL+"/v2/query", `{"relations":[{"name":"nope","attrs":["A"]}]}`)

	mu.Lock()
	defer mu.Unlock()
	if len(entries) != 3 {
		t.Fatalf("access log entries = %d, want 3", len(entries))
	}
	miss, hit, nf := entries[0], entries[1], entries[2]
	if miss.Tenant != "acme" || miss.Status != 200 || miss.CacheHit || miss.Engine != "matmul" || miss.DatasetVersion != 2 {
		t.Fatalf("miss entry = %+v", miss)
	}
	if miss.WallNS <= 0 {
		t.Fatalf("miss entry wall_ns = %d", miss.WallNS)
	}
	if hit.Status != 200 || !hit.CacheHit || hit.QueueNS != 0 {
		t.Fatalf("hit entry = %+v", hit)
	}
	if nf.Status != 404 || nf.Cause != "not_found" || nf.Tenant != DefaultTenant {
		t.Fatalf("not-found entry = %+v", nf)
	}
}
