package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestV2QueryGolden pins the full /v2/query response body (wall_ns
// zeroed): the v2 wire shape is a contract, and any drift must be a
// conscious change to this golden string.
func TestV2QueryGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	resp, body := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, `,"options":{"servers":4,"seed":1}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 query = %d %s", resp.StatusCode, body)
	}

	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out["wall_ns"]; !ok {
		t.Fatal("response missing wall_ns")
	}
	out["wall_ns"] = 0 // nondeterministic; zero before comparing
	got, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"attrs":["A","C"],"class":"matmul","dataset_version":2,"engine":"matmul","rows":[[6,0,1],[15,1,1]],"stats":{"MaxLoad":4,"Rounds":8,"SumLoad":20,"TotalComm":67},"wall_ns":0}`
	if string(got) != golden {
		t.Errorf("v2 golden mismatch:\n got %s\nwant %s", got, golden)
	}
}

// TestV1QueryUnrouted: the flat v1 dialect is gone, not adapted — a body
// the v1 endpoint used to answer 200 finds no route — while the dataset
// endpoints, which never had a successor, are still there. (The same flat
// body on /v2/query is a 400: TestV2ErrorEnvelope/v1-knobs-rejected.)
func TestV1QueryUnrouted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	resp, body := postJSON(t, ts.URL+"/v1/query", fmt.Sprintf(matmulQuery, `,"servers":4,"seed":1`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/query = %d %s, want 404", resp.StatusCode, body)
	}
	getResp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/datasets = %d, want 200", getResp.StatusCode)
	}
}

// TestV2ErrorEnvelope sweeps the typed error envelope's causes.
func TestV2ErrorEnvelope(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	check := func(t *testing.T, status int, cause string, body []byte) {
		t.Helper()
		var out v2ErrorBody
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("error body is not the v2 envelope: %v (%s)", err, body)
		}
		if out.Error.Code != status {
			t.Errorf("envelope code %d != HTTP status %d", out.Error.Code, status)
		}
		if out.Error.Cause != cause {
			t.Errorf("cause = %q, want %q", out.Error.Cause, cause)
		}
		if out.Error.Message == "" {
			t.Error("empty message")
		}
	}

	t.Run("bad_request", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v2/query", `{"relations":[]}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		check(t, resp.StatusCode, "bad_request", body)
	})
	t.Run("v1-knobs-rejected", func(t *testing.T) {
		// An execution knob outside "options" is an unknown field.
		resp, body := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, `,"servers":4`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d %s", resp.StatusCode, body)
		}
		check(t, resp.StatusCode, "bad_request", body)
	})
	t.Run("not_found", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v2/query", `{"relations":[{"name":"Nope","attrs":["A","B"]}]}`)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d", resp.StatusCode)
		}
		check(t, resp.StatusCode, "not_found", body)
	})
	t.Run("fault_budget", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v2/query",
			fmt.Sprintf(matmulQuery, `,"options":{"servers":4,"faults":{"crash_prob":1,"max_retries":1}}`))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d %s", resp.StatusCode, body)
		}
		check(t, resp.StatusCode, "fault_budget", body)
		snap := s.Metrics().Snapshot()
		if snap.FaultBudgetExceeded != 1 {
			t.Errorf("fault_budget_exceeded = %d, want 1", snap.FaultBudgetExceeded)
		}
		if snap.FaultsInjected == 0 {
			t.Error("faults_injected = 0 after injecting")
		}
	})
	t.Run("drain", func(t *testing.T) {
		s.SetDraining(true)
		defer s.SetDraining(false)
		resp, body := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, ""))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d", resp.StatusCode)
		}
		check(t, resp.StatusCode, "drain", body)
	})

	t.Run("v1-error-shape-unchanged", func(t *testing.T) {
		// The dataset endpoints keep the flat error shape they always had.
		resp, body := postJSON(t, ts.URL+"/v1/datasets", `{"name":"X","arity":3,"rows":[]}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if _, ok := out["error"].(string); !ok {
			t.Errorf("/v1/datasets error must be a flat string, got %s", body)
		}
	})
}

// TestV2FaultedQueryTransparent: a v2 query with an absorbable fault
// schedule returns rows and stats identical to the fault-free query,
// plus the fault report; the fault counters aggregate on /metrics.
func TestV2FaultedQueryTransparent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)

	respFree, bodyFree := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, `,"options":{"servers":4,"seed":1}`))
	if respFree.StatusCode != http.StatusOK {
		t.Fatalf("fault-free query = %d %s", respFree.StatusCode, bodyFree)
	}
	resp, body := postJSON(t, ts.URL+"/v2/query",
		fmt.Sprintf(matmulQuery, `,"options":{"servers":4,"seed":1,"faults":{"seed":9,"crash_prob":0.3,"drop_prob":0.3,"max_retries":10}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted query = %d %s", resp.StatusCode, body)
	}

	var free, faulted QueryResponse
	if err := json.Unmarshal(bodyFree, &free); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &faulted); err != nil {
		t.Fatal(err)
	}
	if faulted.Faults == nil {
		t.Fatal("faulted response missing faults report")
	}
	if free.Faults != nil {
		t.Fatal("fault-free response must omit faults")
	}
	if faulted.Stats != free.Stats {
		t.Errorf("faulted stats %+v != fault-free %+v", faulted.Stats, free.Stats)
	}
	if fmt.Sprint(faulted.Rows) != fmt.Sprint(free.Rows) {
		t.Errorf("faulted rows differ:\n%v\n%v", faulted.Rows, free.Rows)
	}
	if faulted.Faults.Injected == 0 {
		t.Error("fault schedule injected nothing; pick a richer seed")
	}

	snap := s.Metrics().Snapshot()
	if snap.FaultsInjected != int64(faulted.Faults.Injected) {
		t.Errorf("metrics faults_injected = %d, want %d", snap.FaultsInjected, faulted.Faults.Injected)
	}
	if snap.FaultsRetried != int64(faulted.Faults.Retried) {
		t.Errorf("metrics faults_retried = %d, want %d", snap.FaultsRetried, faulted.Faults.Retried)
	}
	if len(snap.FaultKinds) == 0 {
		t.Error("metrics fault_kinds empty")
	}
}

// TestV2DecodeFaultBounds rejects out-of-domain fault blocks at decode.
func TestV2DecodeFaultBounds(t *testing.T) {
	bad := []string{
		`{"crash_prob":1.5}`,
		`{"drop_prob":-0.1}`,
		`{"straggler_prob":2}`,
		`{"straggler_delay":-1}`,
		`{"crash_round":-1}`,
		`{"max_retries":65}`,
		`{"stop_after":-1}`,
	}
	for _, fb := range bad {
		body := fmt.Sprintf(matmulQuery, `,"options":{"faults":`+fb+`}`)
		if _, err := DecodeQueryRequestV2(strings.NewReader(body)); err == nil {
			t.Errorf("fault block %s decoded without error", fb)
		}
	}
	ok := fmt.Sprintf(matmulQuery, `,"options":{"faults":{"crash_prob":0.5,"max_retries":-1}}`)
	req, err := DecodeQueryRequestV2(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("valid fault block rejected: %v", err)
	}
	if req.Options.Faults == nil || req.Options.Faults.CrashProb != 0.5 {
		t.Errorf("fault block not normalized: %+v", req.Options.Faults)
	}
}
