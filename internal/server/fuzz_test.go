package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"mpcjoin/internal/planner"
)

// checkDecoded asserts what the query decoder promises about anything it
// accepts: every field inside its documented bounds, so a hostile body
// cannot smuggle out-of-range parameters past validation into the engine.
func checkDecoded(t *testing.T, req *QueryRequestV2) {
	t.Helper()
	if req.Options == nil {
		t.Fatal("decoded request without options")
	}
	if len(req.Relations) == 0 || len(req.Relations) > maxRelations {
		t.Fatalf("accepted request with %d relations", len(req.Relations))
	}
	for _, rel := range req.Relations {
		if rel.Name == "" || len(rel.Attrs) < 1 || len(rel.Attrs) > 2 {
			t.Fatalf("accepted malformed relation %+v", rel)
		}
	}
	if req.Options.Servers < 0 || req.Options.Servers > maxServers ||
		req.Options.Workers < -1 || req.Options.Workers > maxQueryWorkers ||
		req.Options.DeadlineMS < 0 || req.Options.DeadlineMS > maxDeadlineMS {
		t.Fatalf("accepted out-of-range numerics %+v", req)
	}
	if _, err := planner.ParseEngine(req.Strategy); err != nil || !validSemirings[req.Semiring] {
		t.Fatalf("accepted unknown strategy/semiring %+v", req)
	}
	if !validCacheModes[req.Options.Cache] {
		t.Fatalf("accepted unknown cache mode %q", req.Options.Cache)
	}
	if fb := req.Options.Faults; fb != nil {
		if fb.CrashProb < 0 || fb.CrashProb > 1 ||
			fb.DropProb < 0 || fb.DropProb > 1 ||
			fb.StragglerProb < 0 || fb.StragglerProb > 1 ||
			fb.StragglerDelay < 0 || fb.CrashRound < 0 ||
			fb.MaxRetries > maxFaultRetries || fb.StopAfter < 0 {
			t.Fatalf("accepted out-of-range fault block %+v", fb)
		}
		// Whatever the decoder accepts must construct a valid plane.
		if err := fb.Spec(req.Options.Seed).Validate(); err != nil {
			t.Fatalf("accepted fault block fails engine validation: %v (%+v)", err, fb)
		}
	}
}

// flatKnobs are the execution knobs the deleted v1 dialect took at the top
// level of the body; they now live inside "options".
var flatKnobs = []string{"servers", "workers", "seed", "trace", "deadline_ms"}

// FuzzDecodeQueryRequest is the migration guard: its corpus is what a
// client of the deleted flat dialect sends. Over arbitrary bytes the
// decoder returns a validated request or an error and never panics, and a
// body that still carries an execution knob at the top level is never
// silently accepted with the knob dropped.
func FuzzDecodeQueryRequest(f *testing.F) {
	f.Add(`{"relations":[{"name":"R1","attrs":["A","B"]},{"name":"R2","attrs":["B","C"]}],"group_by":["A","C"]}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A"],"dataset":"ds"}],"servers":32,"strategy":"tree","semiring":"maxmin","workers":-1,"deadline_ms":100,"seed":7}`)
	f.Add(`{"relations":[]}`)
	f.Add(`{"relations":[{"name":"","attrs":[]}]}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[1,2,3]`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B","C"]}]}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"workers":9999999}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"deadline_ms":-5}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"strategy":"☃"}`)
	f.Add(strings.Repeat(`{"relations":`, 100))
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeQueryRequestV2(strings.NewReader(body))
		if err != nil {
			return // rejected input: the handler maps this to a 4xx
		}
		checkDecoded(t, req)
		var top map[string]json.RawMessage
		if json.Unmarshal([]byte(body), &top) == nil {
			for _, k := range flatKnobs {
				if _, ok := top[k]; ok {
					t.Fatalf("accepted a body with top-level %q: %s", k, body)
				}
			}
		}
	})
}

// FuzzDecodeQueryRequestV2 is the decoder's contract over bodies of its
// own dialect: options object, faults block, cache modes.
func FuzzDecodeQueryRequestV2(f *testing.F) {
	f.Add(`{"relations":[{"name":"R1","attrs":["A","B"]},{"name":"R2","attrs":["B","C"]}],"group_by":["A","C"]}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A"]}],"options":{"servers":32,"workers":-1,"seed":7,"deadline_ms":100,"trace":true}}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":{"faults":{"crash_prob":0.5,"drop_prob":0.2,"max_retries":8}}}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":{"faults":{"crash_prob":1.5}}}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":{"faults":{"max_retries":9999}}}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"servers":4}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":null}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":{"cache":"bypass"}}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":{"cache":"default"}}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":{"cache":"sometimes"}}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":{"cache":""}}`)
	f.Add(`{`)
	f.Add(`null`)
	// The flat dialect's corpus, with its knobs moved into "options".
	f.Add(`{"relations":[{"name":"R","attrs":["A"],"dataset":"ds"}],"strategy":"tree","semiring":"maxmin","options":{"servers":32,"workers":-1,"deadline_ms":100,"seed":7}}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":{"workers":9999999}}`)
	f.Add(`{"relations":[{"name":"R","attrs":["A","B"]}],"options":{"deadline_ms":-5}}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeQueryRequestV2(strings.NewReader(body))
		if err != nil {
			return // rejected input: the handler maps this to a 4xx
		}
		checkDecoded(t, req)
	})
}

// FuzzDecodeDatasetRequest is the same contract for the registration
// decoder.
func FuzzDecodeDatasetRequest(f *testing.F) {
	f.Add(`{"name":"R1","arity":2,"rows":[[2,0,7],[5,1,7]]}`)
	f.Add(`{"name":"E","arity":2,"generate":{"n":100,"dom":10,"seed":3}}`)
	f.Add(`{"name":"X","arity":1,"rows":[[1]]}`)
	f.Add(`{"arity":0}`)
	f.Add(`{"name":"X","arity":2,"rows":[[1,2,3]],"generate":{"n":1,"dom":1}}`)
	f.Add(`{"name":"X"}`)
	f.Add(`"str"`)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeDatasetRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		if req.Name == "" || req.Arity < 1 || req.Arity > 2 {
			t.Fatalf("accepted malformed dataset request %+v", req)
		}
		for i, row := range req.Rows {
			if len(row) != req.Arity+1 {
				t.Fatalf("accepted row %d of width %d for arity %d", i, len(row), req.Arity)
			}
		}
		if g := req.Generate; g != nil && (g.N < 0 || g.N > maxGeneratedN || g.Dom < 1) {
			t.Fatalf("accepted out-of-range generator %+v", g)
		}
	})
}

// FuzzQueryEndpoint drives the whole handler with arbitrary bodies: the
// response must always be a well-formed HTTP status — 4xx for garbage —
// and the server must not panic regardless of input.
func FuzzQueryEndpoint(f *testing.F) {
	f.Add(`{"relations":[{"name":"R1","attrs":["A","B"]},{"name":"R2","attrs":["B","C"]}],"group_by":["A","C"]}`)
	f.Add(`{"relations":[{"name":"R1","attrs":["A","A"]}]}`)
	f.Add(`{{{`)
	s := New(Config{})
	_, _ = s.Registry().Put("R1", 2, GenerateRows(2, 50, 8, 1))
	_, _ = s.Registry().Put("R2", 2, GenerateRows(2, 50, 8, 2))
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v2/query", bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 && (rec.Code < 400 || rec.Code > 599) {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// FuzzTenantHeader drives /v2/query with arbitrary tenant headers and
// cache modes: any header value must yield either a served query or a
// 4xx with the typed error envelope — never a panic, never a 5xx for a
// header problem.
func FuzzTenantHeader(f *testing.F) {
	f.Add("acme", "default")
	f.Add("", "bypass")
	f.Add("has space", "off")
	f.Add("semi;colon\x00", "")
	f.Add(strings.Repeat("x", 200), "nonsense")
	f.Add("ünïcode", "default")
	s := New(Config{})
	_, _ = s.Registry().Put("R1", 2, GenerateRows(2, 50, 8, 1))
	_, _ = s.Registry().Put("R2", 2, GenerateRows(2, 50, 8, 2))
	const body = `{"relations":[{"name":"R1","attrs":["A","B"]},{"name":"R2","attrs":["B","C"]}],"group_by":["A"],"options":{"cache":%q}}`
	f.Fuzz(func(t *testing.T, tenant, mode string) {
		req := httptest.NewRequest("POST", "/v2/query", strings.NewReader(fmt.Sprintf(body, mode)))
		// Set the header raw: hostile clients are not limited to
		// canonical or even valid header values.
		req.Header["X-Mpc-Tenant"] = []string{tenant}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("status %d for tenant %q mode %q", rec.Code, tenant, mode)
		}
		if rec.Code != 200 {
			var env v2ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Cause == "" {
				t.Fatalf("non-envelope error body %q for tenant %q", rec.Body.String(), tenant)
			}
		}
	})
}
