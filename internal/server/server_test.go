package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// registerMatMul registers two small relations forming a matrix
// multiplication instance with a known answer:
//
//	R1 = {(a=0,b=7):2, (a=1,b=7):5}, R2 = {(b=7,c=1):3}
//	∑_B R1 ⋈ R2 grouped by (A, C) = {(0,1):6, (1,1):15}
func registerMatMul(t *testing.T, base string) {
	t.Helper()
	for name, body := range map[string]string{
		"R1": `{"name":"R1","arity":2,"rows":[[2,0,7],[5,1,7]]}`,
		"R2": `{"name":"R2","arity":2,"rows":[[3,7,1]]}`,
	} {
		resp, out := postJSON(t, base+"/v1/datasets", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %d %s", name, resp.StatusCode, out)
		}
	}
}

const matmulQuery = `{"relations":[{"name":"R1","attrs":["A","B"]},{"name":"R2","attrs":["B","C"]}],"group_by":["A","C"]%s}`

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	// New queries are shed while draining.
	registerResp, _ := postJSON(t, ts.URL+"/v1/datasets", `{"name":"X","arity":1,"rows":[[1,0]]}`)
	if registerResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining register = %d, want 503", registerResp.StatusCode)
	}
	qResp, _ := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, ""))
	if qResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining query = %d, want 503", qResp.StatusCode)
	}
}

func TestQueryMatMulAllSemirings(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	cases := []struct {
		semiring string
		want     [][]any // [annot, a, c]
	}{
		{"ints", [][]any{{6.0, 0.0, 1.0}, {15.0, 1.0, 1.0}}},
		{"minplus", [][]any{{5.0, 0.0, 1.0}, {8.0, 1.0, 1.0}}}, // min over B of (2+3) / (5+3)
		{"maxplus", [][]any{{5.0, 0.0, 1.0}, {8.0, 1.0, 1.0}}}, // single path each
		{"maxmin", [][]any{{2.0, 0.0, 1.0}, {3.0, 1.0, 1.0}}},  // max over paths of min(annots)
		{"bools", [][]any{{true, 0.0, 1.0}, {true, 1.0, 1.0}}}, // reachability
	}
	for _, c := range cases {
		body := fmt.Sprintf(matmulQuery, `,"semiring":"`+c.semiring+`"`)
		resp, out := postJSON(t, ts.URL+"/v2/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", c.semiring, resp.StatusCode, out)
		}
		var qr struct {
			Attrs  []string `json:"attrs"`
			Rows   [][]any  `json:"rows"`
			Class  string   `json:"class"`
			Engine string   `json:"engine"`
			Stats  struct {
				Rounds int
			} `json:"stats"`
		}
		if err := json.Unmarshal(out, &qr); err != nil {
			t.Fatalf("%s: %v in %s", c.semiring, err, out)
		}
		if len(qr.Attrs) != 2 || qr.Attrs[0] != "A" || qr.Attrs[1] != "C" {
			t.Fatalf("%s: attrs = %v", c.semiring, qr.Attrs)
		}
		if qr.Class != "matmul" || qr.Engine != "matmul" {
			t.Fatalf("%s: class/engine = %s/%s", c.semiring, qr.Class, qr.Engine)
		}
		if qr.Stats.Rounds == 0 {
			t.Fatalf("%s: no rounds metered", c.semiring)
		}
		if fmt.Sprint(qr.Rows) != fmt.Sprint(c.want) {
			t.Fatalf("%s: rows = %v, want %v", c.semiring, qr.Rows, c.want)
		}
	}
}

func TestQueryStrategiesAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	var bodies []string
	for _, strat := range []string{"auto", "yannakakis", "tree"} {
		body := fmt.Sprintf(matmulQuery, `,"strategy":"`+strat+`"`)
		resp, out := postJSON(t, ts.URL+"/v2/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", strat, resp.StatusCode, out)
		}
		var qr struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.Unmarshal(out, &qr); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, fmt.Sprint(qr.Rows))
	}
	if bodies[0] != bodies[1] || bodies[1] != bodies[2] {
		t.Fatalf("strategies disagree: %v", bodies)
	}
}

// TestQueryDeterministicAcrossWorkers pins the service-level determinism
// contract: the same query with different per-request worker counts must
// return byte-identical rows and Stats.
func TestQueryDeterministicAcrossWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{Capacity: 16})
	resp, out := postJSON(t, ts.URL+"/v1/datasets",
		`{"name":"E","arity":2,"generate":{"n":2000,"dom":40,"seed":11}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, out)
	}
	strip := func(b []byte) string {
		var qr map[string]json.RawMessage
		if err := json.Unmarshal(b, &qr); err != nil {
			t.Fatalf("%v in %s", err, b)
		}
		// wall_ns legitimately differs between runs.
		delete(qr, "wall_ns")
		keys, _ := json.Marshal(qr)
		return string(keys)
	}
	var got []string
	for _, workers := range []int{0, 1, 2, -1} {
		body := fmt.Sprintf(
			`{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"E"},{"name":"R2","attrs":["B","C"],"dataset":"E"}],"group_by":["A"],"options":{"workers":%d,"seed":3,"cache":"off"}}`,
			workers)
		resp, out := postJSON(t, ts.URL+"/v2/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: %d %s", workers, resp.StatusCode, out)
		}
		got = append(got, strip(out))
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("worker count changed the response:\n%s\nvs\n%s", got[0], got[i])
		}
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{"relations":`, http.StatusBadRequest},
		{"no relations", `{}`, http.StatusBadRequest},
		{"unknown dataset", `{"relations":[{"name":"Nope","attrs":["A","B"]}]}`, http.StatusNotFound},
		{"arity mismatch", `{"relations":[{"name":"R1","attrs":["A"]}]}`, http.StatusBadRequest},
		{"bad strategy", fmt.Sprintf(matmulQuery, `,"strategy":"magic"`), http.StatusBadRequest},
		{"bad semiring", fmt.Sprintf(matmulQuery, `,"semiring":"floats"`), http.StatusBadRequest},
		{"duplicate attr", `{"relations":[{"name":"R1","attrs":["A","A"]}]}`, http.StatusBadRequest},
		{"unknown field", `{"relations":[{"name":"R1","attrs":["A","B"]}],"bogus":1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, out := postJSON(t, ts.URL+"/v2/query", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d (%s), want %d", c.name, resp.StatusCode, out, c.want)
		}
	}
}

func TestDatasetErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"malformed", `not json`},
		{"no name", `{"arity":2,"rows":[]}`},
		{"bad arity", `{"name":"X","arity":3,"rows":[]}`},
		{"row width", `{"name":"X","arity":2,"rows":[[1,2]]}`},
		{"rows and generate", `{"name":"X","arity":2,"rows":[[1,2,3]],"generate":{"n":1,"dom":1}}`},
		{"neither", `{"name":"X","arity":2}`},
		{"bad dom", `{"name":"X","arity":2,"generate":{"n":10,"dom":0}}`},
	}
	for _, c := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/datasets", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, resp.StatusCode)
		}
	}
}

// TestQueryDeadlineCancels registers a larger instance and issues a query
// with a 1ms deadline: the execution must be cancelled (504) and the
// cancellation must show up in /metrics.
func TestQueryDeadlineCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, out := postJSON(t, ts.URL+"/v1/datasets",
		`{"name":"Big","arity":2,"generate":{"n":300000,"dom":500,"seed":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, out)
	}
	body := `{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"Big"},{"name":"R2","attrs":["B","C"],"dataset":"Big"}],"group_by":["A","C"],"options":{"deadline_ms":1,"cache":"off"}}`
	resp, out = postJSON(t, ts.URL+"/v2/query", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline query = %d (%s), want 504", resp.StatusCode, out)
	}
	snap := s.Metrics().Snapshot()
	if snap.Cancelled != 1 {
		t.Fatalf("metrics cancelled = %d, want 1", snap.Cancelled)
	}
	if len(snap.Cancel) != 1 || snap.Cancel[0].Name != "deadline" {
		t.Fatalf("cancel causes = %v, want [deadline]", snap.Cancel)
	}
}

// TestConcurrentQueriesAndMetrics fires many concurrent queries and
// checks they all succeed with identical answers and the metrics add up.
func TestConcurrentQueriesAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 8, MaxQueue: 64})
	registerMatMul(t, ts.URL)
	const n = 16
	results := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(matmulQuery, fmt.Sprintf(`,"options":{"workers":%d,"cache":"off"}`, i%3))
			resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(body))
			if err != nil {
				results[i] = "error: " + err.Error()
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			var qr struct {
				Rows [][]any `json:"rows"`
			}
			if resp.StatusCode != http.StatusOK {
				results[i] = fmt.Sprintf("status %d: %s", resp.StatusCode, buf.String())
				return
			}
			if err := json.Unmarshal(buf.Bytes(), &qr); err != nil {
				results[i] = "decode: " + err.Error()
				return
			}
			results[i] = fmt.Sprint(qr.Rows)
		}(i)
	}
	wg.Wait()
	want := "[[6 0 1] [15 1 1]]"
	for i, r := range results {
		if r != want {
			t.Errorf("query %d: %s, want %s", i, r, want)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.Completed != n {
		t.Errorf("completed = %d, want %d", snap.Completed, n)
	}
	if snap.InFlight != 0 || snap.Queued != 0 {
		t.Errorf("in flight/queued = %d/%d after drain, want 0/0", snap.InFlight, snap.Queued)
	}
	if len(snap.ByEngine) != 1 || snap.ByEngine[0].Name != "matmul" || snap.ByEngine[0].Count != n {
		t.Errorf("by_engine = %v, want matmul:%d", snap.ByEngine, n)
	}
	if snap.SumLoad == 0 || snap.Rounds == 0 {
		t.Errorf("cumulative cost not metered: %+v", snap)
	}
}

func TestListDatasets(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	resp, out := postJSON(t, ts.URL+"/v1/datasets", `{"name":"Z","arity":1,"rows":[[1,5]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, out)
	}
	getResp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var body struct {
		Datasets []string `json:"datasets"`
	}
	if err := json.NewDecoder(getResp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(body.Datasets) != "[R1 R2 Z]" {
		t.Fatalf("datasets = %v", body.Datasets)
	}
}
