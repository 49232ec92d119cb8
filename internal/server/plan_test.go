package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mpcjoin/internal/core"
	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/planner"
)

// planOf decodes the "plan" block shared by /v2/plan and explained
// queries.
type planOf struct {
	Class      string `json:"class"`
	Chosen     string `json:"chosen"`
	Reason     string `json:"reason"`
	Candidates []struct {
		Engine        string  `json:"engine"`
		PredictedLoad float64 `json:"predicted_load"`
		Feasible      bool    `json:"feasible"`
	} `json:"candidates"`
	MeasuredLoad int `json:"measured_load"`
}

// TestV2QueryExplain checks the explain block contract: present exactly
// when requested, naming the engine the execution actually ran, carrying
// the ranked candidates, and stamped with the measured load.
func TestV2QueryExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	resp, body := postJSON(t, ts.URL+"/v2/query",
		strings.Replace(matmulQuery, "%s", `,"options":{"servers":4,"seed":1,"explain":true}`, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explained query = %d %s", resp.StatusCode, body)
	}
	var out struct {
		Engine string `json:"engine"`
		Stats  struct{ MaxLoad int }
		Plan   *planOf `json:"plan"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan == nil {
		t.Fatalf("explain:true returned no plan block: %s", body)
	}
	if out.Plan.Chosen != out.Engine {
		t.Fatalf("plan chose %q but response ran %q", out.Plan.Chosen, out.Engine)
	}
	if out.Plan.Reason == "" {
		t.Fatal("plan has no reason")
	}
	if out.Plan.MeasuredLoad != out.Stats.MaxLoad {
		t.Fatalf("plan measured_load %d != stats MaxLoad %d", out.Plan.MeasuredLoad, out.Stats.MaxLoad)
	}

	resp, body = postJSON(t, ts.URL+"/v2/query",
		strings.Replace(matmulQuery, "%s", `,"options":{"servers":4,"seed":1}`, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain query = %d %s", resp.StatusCode, body)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["plan"]; ok {
		t.Fatal("plan block leaked into an unexplained response")
	}
}

// TestV2PlanDryRun checks the /v2/plan endpoint: it returns the ranked
// plan without executing, and a subsequent identical /v2/query runs
// exactly the engine the dry run named.
func TestV2PlanDryRun(t *testing.T) {
	var (
		mu      sync.Mutex
		entries []AccessEntry
	)
	s, ts := newTestServer(t, Config{AccessLog: func(e AccessEntry) {
		mu.Lock()
		entries = append(entries, e)
		mu.Unlock()
	}})
	registerMatMul(t, ts.URL)

	reqBody := strings.Replace(matmulQuery, "%s", `,"options":{"servers":4,"seed":1}`, 1)
	resp, body := postJSON(t, ts.URL+"/v2/plan", reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan = %d %s", resp.StatusCode, body)
	}
	var pr struct {
		Class          string  `json:"class"`
		Plan           *planOf `json:"plan"`
		DatasetVersion uint64  `json:"dataset_version"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Class != "matmul" || pr.Plan == nil || pr.Plan.Chosen == "" {
		t.Fatalf("dry-run plan = %s", body)
	}
	if pr.Plan.MeasuredLoad != 0 {
		t.Fatalf("dry run must not measure a load: %d", pr.Plan.MeasuredLoad)
	}
	if pr.DatasetVersion == 0 {
		t.Fatal("dry run did not pin a registry version")
	}

	resp, body = postJSON(t, ts.URL+"/v2/query", reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d %s", resp.StatusCode, body)
	}
	var out struct {
		Engine string `json:"engine"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Engine != pr.Plan.Chosen {
		t.Fatalf("dry run chose %q but execution ran %q", pr.Plan.Chosen, out.Engine)
	}

	// Both requests must hit the access log with the plan's engine, and
	// the metrics must count both planner decisions under that engine.
	mu.Lock()
	defer mu.Unlock()
	for _, e := range entries {
		if e.Engine != pr.Plan.Chosen {
			t.Fatalf("access entry %q logged engine %q, want %q", e.Path, e.Engine, pr.Plan.Chosen)
		}
	}
	if len(entries) < 2 {
		t.Fatalf("expected plan + query access entries, got %d", len(entries))
	}
	snap := s.met.Snapshot()
	found := false
	for _, ec := range snap.PlanEngines {
		if ec.Name == pr.Plan.Chosen {
			found = true
			if ec.Count != 2 {
				t.Fatalf("plan_engine_total{%s} = %d, want 2 (one dry run, one query)", ec.Name, ec.Count)
			}
		}
	}
	if !found {
		t.Fatalf("no plan-engine count for %q: %+v", pr.Plan.Chosen, snap.PlanEngines)
	}
}

// TestPlanEngineMetricProm checks the Prometheus rendering of the
// planner-decision counter.
func TestPlanEngineMetricProm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v2/plan",
		strings.Replace(matmulQuery, "%s", `,"options":{"servers":4,"seed":1}`, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan = %d %s", resp.StatusCode, body)
	}
	r, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, r)
	if !strings.Contains(out, "mpcd_plan_engine_total{engine=") {
		t.Fatalf("prometheus output missing mpcd_plan_engine_total:\n%s", out)
	}
}

// TestCacheKeyCarriesResolvedEngine: two requests that force different
// engines must never share a result-cache identity (the options
// fingerprint hashes the forced name; an auto query's engine is a function
// of the rest of the key).
func TestCacheKeyCarriesResolvedEngine(t *testing.T) {
	req := &QueryRequestV2{
		Relations: []QueryRelation{
			{Name: "R1", Attrs: []string{"A", "B"}},
			{Name: "R2", Attrs: []string{"B", "C"}},
		},
		GroupBy: []string{"A", "C"},
		Options: &QueryOptions{},
	}
	insts := map[string]*Dataset{
		"R1": {Arity: 2, Version: 1},
		"R2": {Arity: 2, Version: 1},
	}
	o := core.Options{Servers: 4}
	o.Engine = "matmul-linear"
	k1 := cacheKey(req, insts, o)
	o.Engine = "yannakakis"
	k2 := cacheKey(req, insts, o)
	if k1 == k2 {
		t.Fatalf("cache key ignores the resolved engine: %s", k1)
	}
	// Explain changes the response body, so it must change the key too.
	req.Options.Explain = true
	if k3 := cacheKey(req, insts, o); k3 == k2 {
		t.Fatal("cache key ignores explain")
	}
}

// TestStrategyIsTheEngineTable pins the service's one engine spelling: the
// "strategy" field accepts exactly what the response's "engine" field
// reports (plus "auto"), maps onto core.Options.Engine — so a forced
// engine has one result fingerprint whichever front door it came through —
// and a name the table does not allow for the query's class is the
// client's error on both the query and the plan endpoint.
func TestStrategyIsTheEngineTable(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	withStrategy := func(name string) string {
		return strings.Replace(matmulQuery, "%s", `,"strategy":"`+name+`","options":{"servers":4,"seed":1,"explain":true}`, 1)
	}

	for _, name := range planner.Legal(hypergraph.ClassMatMul) {
		req, err := DecodeQueryRequestV2(strings.NewReader(withStrategy(name)))
		if err != nil {
			t.Fatalf("strategy %q rejected at decode: %v", name, err)
		}
		q, _, bf := bindQuery(req, s.reg.View())
		if bf != nil {
			t.Fatal(bf.msg)
		}
		o, err := s.queryOptions(req, q)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Options{Servers: 4, Seed: 1, Engine: name}.ResultFingerprint()
		if o.Engine != name || o.ResultFingerprint() != want {
			t.Fatalf("strategy %q → engine %q fingerprint %x, want %x", name, o.Engine, o.ResultFingerprint(), want)
		}

		resp, body := postJSON(t, ts.URL+"/v2/query", withStrategy(name))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("strategy %q = %d %s", name, resp.StatusCode, body)
		}
		var out struct {
			Engine string  `json:"engine"`
			Plan   *planOf `json:"plan"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Engine != name || out.Plan == nil || out.Plan.Chosen != name || len(out.Plan.Candidates) != 0 {
			t.Fatalf("strategy %q ran %q with plan %+v", name, out.Engine, out.Plan)
		}
	}

	// "auto" is the absent field.
	auto, _ := DecodeQueryRequestV2(strings.NewReader(withStrategy("auto")))
	none, _ := DecodeQueryRequestV2(strings.NewReader(strings.Replace(matmulQuery, "%s", `,"options":{"servers":4,"seed":1,"explain":true}`, 1)))
	q, insts, _ := bindQuery(auto, s.reg.View())
	oa, _ := s.queryOptions(auto, q)
	on, _ := s.queryOptions(none, q)
	if oa.Engine != "" || cacheKey(auto, insts, oa) != cacheKey(none, insts, on) {
		t.Fatal(`"strategy":"auto" and no strategy differ in cache identity`)
	}

	// An explained auto query must not be served the stub plan of a forced
	// run of the same engine (they key apart).
	resp, body := postJSON(t, ts.URL+"/v2/query", withStrategy("auto"))
	var out struct {
		Engine string  `json:"engine"`
		Plan   *planOf `json:"plan"`
	}
	if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("auto = %d %s", resp.StatusCode, body)
	}
	if out.Plan == nil || len(out.Plan.Candidates) == 0 || out.Plan.Chosen != out.Engine {
		t.Fatalf("auto query after forced runs explained itself with %+v", out.Plan)
	}

	for _, path := range []string{"/v2/query", "/v2/plan"} {
		resp, body := postJSON(t, ts.URL+path, withStrategy(planner.EngineLine))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "not legal for class matmul") {
			t.Fatalf("%s with an illegal engine = %d %s", path, resp.StatusCode, body)
		}
		resp, body = postJSON(t, ts.URL+path, withStrategy("quantum"))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown engine") {
			t.Fatalf("%s with an unknown engine = %d %s", path, resp.StatusCode, body)
		}
	}
}
