package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// Graph-query surface tests: the v2 "graph" block end to end through
// HTTP, plus the cache-identity regression for faulted vs clean runs.

// registerChainGraph registers a 5-edge weighted chain 0→1→2→3→4→5 as
// edge relation E (annotation = weight i+1), so BFS levels and SSSP
// distances have closed forms.
func registerChainGraph(t *testing.T, base string) {
	t.Helper()
	rows := ""
	for i := 0; i < 5; i++ {
		if i > 0 {
			rows += ","
		}
		rows += fmt.Sprintf("[%d,%d,%d]", i+1, i, i+1)
	}
	body := fmt.Sprintf(`{"name":"E","arity":2,"rows":[%s]}`, rows)
	resp, out := postJSON(t, base+"/v1/datasets", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register E: %d %s", resp.StatusCode, out)
	}
}

const graphQueryV2 = `{"relations":[{"name":"E","attrs":["S","D"]}],"graph":%s%s}`

func decodeResp(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	return m
}

func TestGraphQueryBFS(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerChainGraph(t, ts.URL)

	body := fmt.Sprintf(graphQueryV2, `{"kind":"bfs","source":0}`, "")
	resp, out := postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bfs query = %d %s", resp.StatusCode, out)
	}
	m := decodeResp(t, out)
	if m["engine"] != "spmv-bfs" || m["class"] != "graph" {
		t.Fatalf("engine/class = %v/%v, want spmv-bfs/graph", m["engine"], m["class"])
	}
	if conv, ok := m["converged"].(bool); !ok || !conv {
		t.Fatalf("converged = %v, want true", m["converged"])
	}
	if n, _ := m["iterations"].([]any); len(n) == 0 {
		t.Fatalf("no per-iteration stats: %s", out)
	}
	// Levels on a 6-chain: vertex i at level i.
	want := [][]any{}
	for i := 0; i < 6; i++ {
		want = append(want, []any{float64(i), float64(i)})
	}
	rows, _ := m["rows"].([]any)
	got := [][]any{}
	for _, r := range rows {
		got = append(got, r.([]any))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bfs rows = %v, want %v", got, want)
	}
	if attrs, _ := m["attrs"].([]any); len(attrs) != 1 || attrs[0] != "vertex" {
		t.Fatalf("attrs = %v, want [vertex]", m["attrs"])
	}
}

func TestGraphQuerySSSPAndPageRank(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerChainGraph(t, ts.URL)

	body := fmt.Sprintf(graphQueryV2, `{"kind":"sssp","source":0}`, "")
	resp, out := postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sssp query = %d %s", resp.StatusCode, out)
	}
	m := decodeResp(t, out)
	if m["engine"] != "spmv-sssp" {
		t.Fatalf("engine = %v", m["engine"])
	}
	// Distances on the weighted chain: dist(i) = 1+2+...+i.
	rows, _ := m["rows"].([]any)
	if len(rows) != 6 {
		t.Fatalf("sssp rows = %v", rows)
	}
	wantDist := []float64{0, 1, 3, 6, 10, 15}
	for i, r := range rows {
		row := r.([]any)
		if row[0] != wantDist[i] || row[1] != float64(i) {
			t.Fatalf("sssp row %d = %v, want [%v %d]", i, row, wantDist[i], i)
		}
	}

	body = fmt.Sprintf(graphQueryV2, `{"kind":"pagerank","damping":0.9,"tol":1e-8}`, "")
	resp, out = postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pagerank query = %d %s", resp.StatusCode, out)
	}
	m = decodeResp(t, out)
	if m["engine"] != "spmv-pagerank" {
		t.Fatalf("engine = %v", m["engine"])
	}
	if conv, ok := m["converged"].(bool); !ok || !conv {
		t.Fatalf("pagerank converged = %v", m["converged"])
	}
	var sum float64
	for _, r := range m["rows"].([]any) {
		sum += r.([]any)[0].(float64)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("pagerank scores sum to %v", sum)
	}
}

func TestGraphQueryTraceAndBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerChainGraph(t, ts.URL)

	body := fmt.Sprintf(graphQueryV2, `{"kind":"bfs","source":0,"max_iters":2}`,
		`,"options":{"trace":true}`)
	resp, out := postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted query = %d %s", resp.StatusCode, out)
	}
	m := decodeResp(t, out)
	if conv, ok := m["converged"].(bool); !ok || conv {
		t.Fatalf("budget-cut run converged = %v, want false", m["converged"])
	}
	if iters, _ := m["iterations"].([]any); len(iters) != 2 {
		t.Fatalf("iterations = %v, want 2", m["iterations"])
	}
	rounds, _ := m["rounds"].([]any)
	if len(rounds) == 0 {
		t.Fatalf("traced graph query has no rounds: %s", out)
	}
	seen := false
	for _, r := range rounds {
		if op, _ := r.(map[string]any)["op"].(string); op == "iter0.partials" {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("trace lacks per-iteration exchange labels: %v", rounds)
	}
}

func TestGraphQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerChainGraph(t, ts.URL)
	registerMatMul(t, ts.URL)

	for name, body := range map[string]string{
		"unknown kind":   fmt.Sprintf(graphQueryV2, `{"kind":"wcc"}`, ""),
		"bfs + damping":  fmt.Sprintf(graphQueryV2, `{"kind":"bfs","damping":0.5}`, ""),
		"pagerank + src": fmt.Sprintf(graphQueryV2, `{"kind":"pagerank","source":3}`, ""),
		"iters over cap": fmt.Sprintf(graphQueryV2, `{"kind":"bfs","max_iters":65536}`, ""),
		"graph + group_by": `{"relations":[{"name":"E","attrs":["S","D"]}],` +
			`"group_by":["S"],"graph":{"kind":"bfs"}}`,
		"graph + semiring": `{"relations":[{"name":"E","attrs":["S","D"]}],` +
			`"semiring":"minplus","graph":{"kind":"bfs"}}`,
		"graph + two relations": `{"relations":[{"name":"R1","attrs":["A","B"]},` +
			`{"name":"R2","attrs":["B","C"]}],"graph":{"kind":"bfs"}}`,
	} {
		resp, out := postJSON(t, ts.URL+"/v2/query", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d %s, want 400", name, resp.StatusCode, out)
		}
	}
}

func TestGraphQueryCacheRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerChainGraph(t, ts.URL)

	body := fmt.Sprintf(graphQueryV2, `{"kind":"sssp","source":0}`, "")
	resp, cold := postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold = %d %s", resp.StatusCode, cold)
	}
	if decodeResp(t, cold)["cached"] == true {
		t.Fatal("cold graph query served from cache")
	}
	resp, warm := postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm = %d %s", resp.StatusCode, warm)
	}
	if decodeResp(t, warm)["cached"] != true {
		t.Fatalf("identical graph query not served from cache: %s", warm)
	}
	if !reflect.DeepEqual(stripVolatile(t, cold), stripVolatile(t, warm)) {
		t.Fatalf("cached graph body differs:\n%s\n%s", cold, warm)
	}

	// Different driver parameters are different identities.
	other := fmt.Sprintf(graphQueryV2, `{"kind":"sssp","source":1}`, "")
	resp, out := postJSON(t, ts.URL+"/v2/query", other)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("src=1 = %d %s", resp.StatusCode, out)
	}
	if decodeResp(t, out)["cached"] == true {
		t.Fatal("sssp from a different source hit the cache of source 0")
	}
}

// TestCacheIdentityFaultedVsClean pins the cache-identity invariant for
// fault-injected queries: the fault schedule is part of the result
// identity (it changes the fault report, and, on budget exhaustion, the
// outcome), so a clean query must never be served the cached body of a
// faulted-but-identical-otherwise query — in either direction. The
// regression shape: run the faulted query FIRST so its entry is the one
// sitting in the cache when the clean twin arrives.
func TestCacheIdentityFaultedVsClean(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	faulted := fmt.Sprintf(matmulQuery,
		`,"options":{"seed":11,"faults":{"drop_prob":0.3,"max_retries":16}}`)
	clean := fmt.Sprintf(matmulQuery, `,"options":{"seed":11}`)

	resp, fbody := postJSON(t, ts.URL+"/v2/query", faulted)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted query = %d %s", resp.StatusCode, fbody)
	}
	fm := decodeResp(t, fbody)
	if fm["faults"] == nil {
		t.Fatalf("faulted query has no fault report: %s", fbody)
	}

	// The clean twin arrives next, in default cache mode. It must execute
	// fresh: not cached, not coalesced, and above all no fault report.
	resp, cbody := postJSON(t, ts.URL+"/v2/query", clean)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean query = %d %s", resp.StatusCode, cbody)
	}
	cm := decodeResp(t, cbody)
	if cm["cached"] == true || cm["coalesced"] == true {
		t.Fatalf("clean query served the faulted query's cache entry: %s", cbody)
	}
	if cm["faults"] != nil {
		t.Fatalf("clean query carries a fault report: %s", cbody)
	}

	// Both identities cache independently: each twin's repeat hits its own
	// entry and reproduces its own body (fault report included).
	resp, fwarm := postJSON(t, ts.URL+"/v2/query", faulted)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted repeat = %d %s", resp.StatusCode, fwarm)
	}
	fw := decodeResp(t, fwarm)
	if fw["cached"] != true {
		t.Fatalf("faulted repeat missed its own cache entry: %s", fwarm)
	}
	if fw["faults"] == nil {
		t.Fatalf("cached faulted body lost its fault report: %s", fwarm)
	}
	resp, cwarm := postJSON(t, ts.URL+"/v2/query", clean)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean repeat = %d %s", resp.StatusCode, cwarm)
	}
	cw := decodeResp(t, cwarm)
	if cw["cached"] != true {
		t.Fatalf("clean repeat missed its own cache entry: %s", cwarm)
	}
	if cw["faults"] != nil {
		t.Fatalf("cached clean body grew a fault report: %s", cwarm)
	}
	if !reflect.DeepEqual(stripVolatile(t, fbody), stripVolatile(t, fwarm)) {
		t.Fatalf("faulted bodies differ across cache:\n%s\n%s", fbody, fwarm)
	}
	if !reflect.DeepEqual(stripVolatile(t, cbody), stripVolatile(t, cwarm)) {
		t.Fatalf("clean bodies differ across cache:\n%s\n%s", cbody, cwarm)
	}
}
