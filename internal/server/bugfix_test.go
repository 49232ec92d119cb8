package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcjoin/internal/core"
	"mpcjoin/internal/db"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/mpc"
	"mpcjoin/internal/semiring"
)

// registerBig registers a generated dataset large enough that a matmul
// query over it holds the admission capacity for a while.
func registerBig(t *testing.T, base string) {
	t.Helper()
	resp, out := postJSON(t, base+"/v1/datasets",
		`{"name":"Big","arity":2,"generate":{"n":400000,"dom":500,"seed":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, out)
	}
}

const bigQuery = `{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"Big"},{"name":"R2","attrs":["B","C"],"dataset":"Big"}],"group_by":["A","C"]%s}`

// occupyCapacity starts a slow query in the background and returns once it
// is executing (holding admission weight). The returned func cancels the
// query (its full run would take far too long for a test) and waits for
// the handler to release the capacity.
func occupyCapacity(t *testing.T, s *Server, ts string) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts+"/v2/query",
			strings.NewReader(fmt.Sprintf(bigQuery, `,"options":{"cache":"off"}`)))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Snapshot().InFlight == 0 {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("slow query never started executing")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		cancel()
		<-done
		deadline := time.Now().Add(10 * time.Second)
		for s.Metrics().Snapshot().InFlight > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWorkersZeroFloodIsAdmissionControlled is the regression test for the
// admission-bypass bug: workers:0 (the default) must hold ≥ 1 unit of
// weight, so a flood of default queries against a full server is queued
// and shed — not all admitted past the capacity.
func TestWorkersZeroFloodIsAdmissionControlled(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 1, MaxQueue: 1})
	registerMatMul(t, ts.URL)
	registerBig(t, ts.URL)

	wait := occupyCapacity(t, s, ts.URL)

	// Capacity 1 is held and the queue holds 1: of these four workers:0
	// queries exactly one can queue; the rest must be shed with 429.
	const flood = 4
	codes := make([]int, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(matmulQuery, `,"options":{"workers":0,"cache":"off"}`)
			resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	// Wait until the shed requests have bounced, then free the capacity so
	// the one queued query can run its (small) matmul and return.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Snapshot().Rejected < flood-1 {
		if time.Now().After(deadline) {
			t.Fatalf("flood not shed: %+v", s.Metrics().Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	wait()
	wg.Wait()

	shed, ok := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK:
			ok++
		}
	}
	if shed != flood-1 || ok != 1 {
		t.Fatalf("flood of workers:0 queries bypassed admission: codes %v, want %d shed + 1 queued-then-run", codes, flood-1)
	}
	if got := s.Metrics().Snapshot().Rejected; got != int64(shed) {
		t.Fatalf("rejected = %d, want %d", got, shed)
	}
}

// TestDeadlineCoversQueueWait is the regression test for the
// deadline-after-Acquire bug: a query whose deadline expires while it
// waits in the admission queue must come back 504 with cause "deadline",
// not run anyway once capacity frees up.
func TestDeadlineCoversQueueWait(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 1, MaxQueue: 4})
	registerMatMul(t, ts.URL)
	registerBig(t, ts.URL)

	wait := occupyCapacity(t, s, ts.URL)

	start := time.Now()
	body := fmt.Sprintf(matmulQuery, `,"options":{"deadline_ms":100,"cache":"off"}`)
	resp, out := postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline query = %d (%s), want 504", resp.StatusCode, out)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not fire in the queue (took %v)", elapsed)
	}
	snap := s.Metrics().Snapshot()
	found := false
	for _, c := range snap.Cancel {
		if c.Name == "deadline" && c.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("cancel causes = %v, want deadline ≥ 1", snap.Cancel)
	}
	wait()
}

// TestErrorClassification is the regression test for the error-status
// misclassification bug: request-side failures are clientError (400,
// failed_client) while everything else from the engine is internal (500,
// failed_internal).
func TestErrorClassification(t *testing.T) {
	// The wrapper and its detection, including through fmt.Errorf chains.
	base := errors.New("boom")
	if !isClientError(&clientError{base}) {
		t.Fatal("clientError not detected")
	}
	if !isClientError(fmt.Errorf("context: %w", &clientError{base})) {
		t.Fatal("wrapped clientError not detected")
	}
	if isClientError(base) || isClientError(nil) {
		t.Fatal("plain error misclassified as client error")
	}

	// An unknown semiring surfaces as a client error from execute.
	s := New(Config{})
	q := &hypergraph.Query{Edges: []hypergraph.Edge{{Name: "R", Attrs: []hypergraph.Attr{"A", "B"}}}}
	_, err := s.execute(context.Background(), &QueryRequestV2{Semiring: "floats", Options: &QueryOptions{}}, q,
		map[string]*Dataset{}, core.Options{})
	if !isClientError(err) {
		t.Fatalf("unknown semiring: err = %v, want client error", err)
	}

	// A query that fails validation inside runTyped is a client error.
	badQ := &hypergraph.Query{Edges: []hypergraph.Edge{{Name: "R", Attrs: []hypergraph.Attr{"A", "A"}}}}
	_, err = runTyped[int64](context.Background(), semiring.IntSumProd{}, badQ,
		db.Instance[int64]{}, core.Options{}, func(w int64) any { return w })
	if !isClientError(err) {
		t.Fatalf("invalid query: err = %v, want client error", err)
	}

	// The metrics split the two failure kinds and keep the legacy total.
	m := NewMetrics()
	m.QueryFailedClient()
	m.QueryFailedClient()
	m.QueryFailedInternal()
	snap := m.Snapshot()
	if snap.FailedClient != 2 || snap.FailedInternal != 1 || snap.Failed != 3 {
		t.Fatalf("failed counters = client %d internal %d total %d, want 2/1/3",
			snap.FailedClient, snap.FailedInternal, snap.Failed)
	}
}

// TestDrainCancellationCause is the regression test for the mislabeled
// drain cause: a query cancelled while the server drains must be recorded
// under cause "drain", not "client".
func TestDrainCancellationCause(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 4})
	registerBig(t, ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v2/query",
			strings.NewReader(fmt.Sprintf(bigQuery, `,"options":{"cache":"off"}`)))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Snapshot().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started executing")
		}
		time.Sleep(time.Millisecond)
	}

	// The daemon's drain path: flip the flag, then cancel in-flight work.
	s.SetDraining(true)
	cancel()
	<-done

	deadline = time.Now().Add(10 * time.Second)
	for {
		snap := s.Metrics().Snapshot()
		var drain, client int64
		for _, c := range snap.Cancel {
			switch c.Name {
			case "drain":
				drain = c.Count
			case "client":
				client = c.Count
			}
		}
		if drain >= 1 {
			if client != 0 {
				t.Fatalf("drain cancellation also recorded as client: %v", snap.Cancel)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel causes = %v, want drain ≥ 1", snap.Cancel)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryTrace: "trace": true returns a per-round timeline and leaves
// results and stats identical to an untraced run.
func TestQueryTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	respPlain, outPlain := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, ""))
	respTraced, outTraced := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, `,"options":{"trace":true}`))
	if respPlain.StatusCode != http.StatusOK || respTraced.StatusCode != http.StatusOK {
		t.Fatalf("status = %d / %d", respPlain.StatusCode, respTraced.StatusCode)
	}

	type qr struct {
		Rows  [][]any `json:"rows"`
		Stats struct {
			Rounds  int   `json:"rounds"`
			MaxLoad int64 `json:"max_load"`
		} `json:"stats"`
		Rounds []struct {
			Round   int    `json:"round"`
			Op      string `json:"op"`
			MaxLoad int64  `json:"max_load"`
			Servers int    `json:"servers"`
		} `json:"rounds"`
	}
	var plain, traced qr
	if err := json.Unmarshal(outPlain, &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(outTraced, &traced); err != nil {
		t.Fatal(err)
	}
	if len(plain.Rounds) != 0 {
		t.Fatalf("untraced response has rounds: %+v", plain.Rounds)
	}
	if len(traced.Rounds) == 0 {
		t.Fatal("traced response has no rounds")
	}
	if fmt.Sprint(plain.Rows) != fmt.Sprint(traced.Rows) || plain.Stats != traced.Stats {
		t.Fatalf("tracing changed the result:\n%s\nvs\n%s", outPlain, outTraced)
	}
	for i, rt := range traced.Rounds {
		if rt.Round != i+1 || rt.Op == "" || rt.Servers <= 0 {
			t.Fatalf("malformed round %d: %+v", i+1, rt)
		}
	}
}

// TestSixteenArmStarIsNotFatal: a well-formed 16-relation star is within
// maxRelations, but the degree-permutation class split names at most 15
// arms. Forcing an engine built on it is the client's error, answered
// before admission; auto prices those engines infeasible and answers
// through another. (Either request used to panic inside the shared
// execution's goroutine and take the daemon down.)
func TestSixteenArmStarIsNotFatal(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, out := postJSON(t, ts.URL+"/v1/datasets", `{"name":"E","arity":2,"rows":[[1,0,7],[2,1,8]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, out)
	}
	var rels, groupBy []string
	for i := 0; i < 16; i++ {
		rels = append(rels, fmt.Sprintf(`{"name":"R%d","attrs":["A%d","B"],"dataset":"E"}`, i, i))
		groupBy = append(groupBy, fmt.Sprintf(`"A%d"`, i))
	}
	query := `{"relations":[` + strings.Join(rels, ",") + `],"group_by":[` + strings.Join(groupBy, ",") + `]%s}`

	for _, strategy := range []string{"star", "tree"} {
		for _, path := range []string{"/v2/query", "/v2/plan"} {
			resp, out := postJSON(t, ts.URL+path, fmt.Sprintf(query, `,"strategy":"`+strategy+`"`))
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), `"bad_request"`) || !strings.Contains(string(out), "at most 15") {
				t.Fatalf("%s forced %s: %d %s", path, strategy, resp.StatusCode, out)
			}
		}
	}
	if snap := s.Metrics().Snapshot(); snap.Completed != 0 || snap.Failed != 0 {
		t.Fatalf("a forced 16-arm star reached admission: %+v", snap)
	}

	resp, out := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(query, ""))
	var qr QueryResponse
	if err := json.Unmarshal(out, &qr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("auto: %d %s (%v)", resp.StatusCode, out, err)
	}
	// One output tuple per B value: (0,…,0) and (1,…,1).
	if qr.Engine != "yannakakis" || len(qr.Rows) != 2 {
		t.Fatalf("auto ran %s and returned %d rows", qr.Engine, len(qr.Rows))
	}
}

// panicWire is an exchange backend with a bug: its first round panics.
type panicWire struct{}

func (panicWire) Name() string                              { return "panic" }
func (panicWire) Connect(context.Context) (mpc.Wire, error) { return panicWire{}, nil }
func (panicWire) Close() error                              { return nil }
func (panicWire) ExchangeRound(context.Context, *mpc.WireRound) (*mpc.WireInbox, error) {
	panic("injected engine bug")
}

// TestEnginePanicIsAnInternalError: a panic inside an admitted execution —
// here injected at the first exchange barrier of a coalesced execution,
// which runs on the flight's own goroutine — is a 500 for every waiter, not
// the end of the process; the admission weight it held is released.
func TestEnginePanicIsAnInternalError(t *testing.T) {
	s, ts := newTestServer(t, Config{Transport: panicWire{}})
	registerMatMul(t, ts.URL)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v2/query", "application/json",
				strings.NewReader(fmt.Sprintf(matmulQuery, `,"strategy":"yannakakis"`)))
			if err != nil {
				t.Errorf("waiter: %v", err)
				return
			}
			defer resp.Body.Close()
			var env struct {
				Error struct{ Cause, Message string }
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusInternalServerError ||
				env.Error.Cause != "internal" || !strings.Contains(env.Error.Message, "injected engine bug") {
				t.Errorf("waiter: %d %+v (%v)", resp.StatusCode, env, err)
			}
		}()
	}
	wg.Wait()
	snap := s.Metrics().Snapshot()
	if snap.InFlight != 0 || snap.FailedInternal == 0 || snap.Completed != 0 {
		t.Fatalf("after the panics: %+v", snap)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon did not survive: %v", err)
	}
}
