package server

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition line: name, sorted label string, value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// parseProm is a minimal Prometheus text-format (0.0.4) parser: enough to
// validate that the exposition is well-formed — every non-comment line is
// `name[{labels}] value`, every # TYPE names a seen metric family, label
// values are quoted. It returns the samples and the family → type map.
func parseProm(t *testing.T, text string) ([]promSample, map[string]string) {
	t.Helper()
	var samples []promSample
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					t.Fatalf("line %d: malformed TYPE %q", ln, line)
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln, line)
		}
		id, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln, valStr, err)
		}
		name, labels := id, ""
		if i := strings.IndexByte(id, '{'); i >= 0 {
			if !strings.HasSuffix(id, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln, id)
			}
			name, labels = id[:i], id[i+1:len(id)-1]
			for _, pair := range strings.Split(labels, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("line %d: malformed label %q", ln, pair)
				}
			}
		}
		for _, r := range name {
			if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				t.Fatalf("line %d: invalid metric name %q", ln, name)
			}
		}
		samples = append(samples, promSample{name: name, labels: labels, value: val})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

func findSample(samples []promSample, name, labels string) (float64, bool) {
	for _, s := range samples {
		if s.name == name && s.labels == labels {
			return s.value, true
		}
	}
	return 0, false
}

// TestMetricsPromFormat runs queries and checks /metrics?format=prom is a
// well-formed exposition whose counters and histograms reflect them.
func TestMetricsPromFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMatMul(t, ts.URL)
	for i := 0; i < 3; i++ {
		resp, out := postJSON(t, ts.URL+"/v2/query", fmt.Sprintf(matmulQuery, `,"options":{"cache":"off"}`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, out)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, sb.String())

	if v, ok := findSample(samples, "mpcd_queries_completed_total", ""); !ok || v != 3 {
		t.Fatalf("completed_total = %v (found %v), want 3", v, ok)
	}
	if types["mpcd_queries_completed_total"] != "counter" {
		t.Fatalf("completed_total type = %q", types["mpcd_queries_completed_total"])
	}
	if v, ok := findSample(samples, "mpcd_queries_by_engine_total", `engine="matmul"`); !ok || v != 3 {
		t.Fatalf("by_engine matmul = %v (found %v), want 3", v, ok)
	}

	// Histogram invariants for both families: cumulative non-decreasing
	// buckets, +Inf bucket equals _count, 3 observations recorded.
	for _, h := range []string{"mpcd_query_max_load", "mpcd_query_rounds"} {
		if types[h] != "histogram" {
			t.Fatalf("%s type = %q, want histogram", h, types[h])
		}
		prev, inf := -1.0, -1.0
		for _, s := range samples {
			if s.name != h+"_bucket" {
				continue
			}
			if s.value < prev {
				t.Fatalf("%s buckets not cumulative: %v after %v", h, s.value, prev)
			}
			prev = s.value
			if s.labels == `le="+Inf"` {
				inf = s.value
			}
		}
		count, ok := findSample(samples, h+"_count", "")
		if !ok || count != 3 {
			t.Fatalf("%s_count = %v (found %v), want 3", h, count, ok)
		}
		if inf != count {
			t.Fatalf("%s +Inf bucket %v != count %v", h, inf, count)
		}
		if sum, ok := findSample(samples, h+"_sum", ""); !ok || sum <= 0 {
			t.Fatalf("%s_sum = %v (found %v), want > 0", h, sum, ok)
		}
	}

	// The JSON view must still work alongside the prom view.
	jresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("JSON view content type = %q", ct)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
