package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// genQuery is a matmul over two generated 400-row relations: big enough
// that no fast path claims it, so answering it really runs the planner's
// sketch pre-pass.
const genQuery = `{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"G1"},{"name":"R2","attrs":["B","C"],"dataset":"G2"}],"group_by":["A","C"],"options":{"servers":4,"seed":1%s}}`

func registerGen(t *testing.T, base string) {
	t.Helper()
	for i, name := range []string{"G1", "G2"} {
		resp, out := postJSON(t, base+"/v1/datasets",
			fmt.Sprintf(`{"name":%q,"arity":2,"generate":{"n":400,"dom":60,"seed":%d}}`, name, i+1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %d %s", name, resp.StatusCode, out)
		}
	}
}

// TestAnswerIsAFunctionOfTheRequest pins the claim the result cache rests
// on: for one request body, the "faults", "rounds", "stats", "rows" and
// "plan" blocks of the answer do not depend on the cache mode, on whether
// the plan was computed or found in the plan cache, or on a /v2/plan that
// came first. (When the plan was resolved before admission under the
// request's own fault plane and tracer, a cold answer carried the planner
// pre-pass's rounds and faults and a warm one did not.)
func TestAnswerIsAFunctionOfTheRequest(t *testing.T) {
	type call struct{ path, cache string }
	histories := map[string][]call{
		"off":              {{"/v2/query", "off"}},
		"bypass twice":     {{"/v2/query", "bypass"}, {"/v2/query", "bypass"}},
		"plan then bypass": {{"/v2/plan", "bypass"}, {"/v2/query", "bypass"}},
		"miss then hit":    {{"/v2/query", "default"}, {"/v2/query", "default"}},
	}
	blocks := []string{"faults", "rounds", "stats", "rows", "plan"}

	for knob, present := range map[string]string{
		`"faults":{"crash_round":3,"max_retries":4}`: "faults",
		`"trace":true`:   "rounds",
		`"explain":true`: "plan",
	} {
		var ref map[string]json.RawMessage
		var refFrom string
		for name, calls := range histories {
			_, ts := newTestServer(t, Config{})
			registerGen(t, ts.URL)
			for i, c := range calls {
				body := fmt.Sprintf(genQuery, fmt.Sprintf(`,"cache":%q,%s`, c.cache, knob))
				resp, out := postJSON(t, ts.URL+c.path, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s / %s #%d: %d %s", knob, name, i, resp.StatusCode, out)
				}
				var got map[string]json.RawMessage
				if err := json.Unmarshal(out, &got); err != nil {
					t.Fatal(err)
				}
				if c.path == "/v2/plan" {
					var pl struct {
						Plan struct {
							EstimateStats struct{ Rounds int } `json:"estimate_stats"`
						} `json:"plan"`
					}
					if err := json.Unmarshal(out, &pl); err != nil || pl.Plan.EstimateStats.Rounds == 0 {
						t.Fatalf("the instance does not exercise the pre-pass: %s", out)
					}
					continue
				}
				from := fmt.Sprintf("%s #%d", name, i)
				if got[present] == nil {
					t.Fatalf("%s / %s: no %q block: %s", knob, from, present, out)
				}
				if ref == nil {
					ref, refFrom = got, from
					continue
				}
				for _, b := range blocks {
					if string(got[b]) != string(ref[b]) {
						t.Errorf("%s: %q differs between %s and %s:\n%s\nvs\n%s", knob, b, from, refFrom, got[b], ref[b])
					}
				}
			}
		}
	}
}

// TestShedRequestsPlanNothing: planning is admitted work. With the
// capacity held and the wait queue full, a cold auto /v2/query and a
// /v2/plan are shed with 429 before any placement or sketch round — they
// leave no plan behind — and the same body plans once it is admitted.
func TestShedRequestsPlanNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{Capacity: 1, MaxQueue: 1})
	registerGen(t, ts.URL)
	registerMatMul(t, ts.URL)
	registerBig(t, ts.URL)

	release := occupyCapacity(t, s, ts.URL)
	filler := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v2/query", "application/json",
			strings.NewReader(fmt.Sprintf(matmulQuery, `,"options":{"cache":"off"}`)))
		if err != nil {
			filler <- 0
			return
		}
		resp.Body.Close()
		filler <- resp.StatusCode
	}()
	waitFor(t, "the filler to occupy the wait queue", func() bool { return s.fair.Queued() == 1 })

	body := fmt.Sprintf(genQuery, "")
	req, err := DecodeQueryRequestV2(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	q, insts, bf := bindQuery(req, s.reg.View())
	if bf != nil {
		t.Fatal(bf.msg)
	}
	o, err := s.queryOptions(req, q)
	if err != nil {
		t.Fatal(err)
	}
	key := planKey(req, insts, o)

	for _, path := range []string{"/v2/query", "/v2/plan"} {
		resp, out := postJSON(t, ts.URL+path, body)
		var env v2ErrorBody
		if err := json.Unmarshal(out, &env); err != nil || resp.StatusCode != http.StatusTooManyRequests || env.Error.Cause != "queue_full" {
			t.Fatalf("%s against a full queue = %d %s, want 429 queue_full", path, resp.StatusCode, out)
		}
		if _, ok := s.plans.Get(key); ok {
			t.Fatalf("shed %s left a plan behind: planning ran outside admission", path)
		}
	}

	release()
	if code := <-filler; code != http.StatusOK {
		t.Fatalf("queued filler = %d, want 200 once the capacity freed", code)
	}
	resp, out := postJSON(t, ts.URL+"/v2/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admitted plan = %d %s", resp.StatusCode, out)
	}
	if _, ok := s.plans.Get(key); !ok {
		t.Fatal("the admitted /v2/plan did not plan")
	}
}
