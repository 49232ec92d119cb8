package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// spans.go is the harness-side tracer: spans are recorded in memory around
// each call into a layer's public functions and written out at exit. The
// program itself is not instrumented.

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created; Parent is the index of the enclosing span (-1 for a
// root); spans of one op share OpID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// tracer collects spans. A nil *tracer records nothing, so traced and
// untraced passes share one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent, opID int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, OpID: opID})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took; it times fn
// even when t is nil.
func (t *tracer) timed(name string, parent, opID int, fn func()) time.Duration {
	id := t.begin(name, parent, opID)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover (children clipped to the parent, overlaps counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, edge int64 = 0, s.Start
		for _, k := range iv {
			lo := max(k[0], edge)
			if k[1] > lo {
				covered += k[1] - lo
				edge = k[1]
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfShares sums self time by span name and returns each name's share of
// the total, plus the total itself.
func selfShares(spans []span) (map[string]float64, int64) {
	self := selfTimes(spans)
	by := make(map[string]int64)
	var total int64
	for i, s := range spans {
		by[s.Name] += self[i]
		total += self[i]
	}
	shares := make(map[string]float64, len(by))
	for name, v := range by {
		shares[name] = ratio(float64(v), float64(total))
	}
	return shares, total
}

// rootTotal is the summed duration of root spans: what self times must
// add up to.
func rootTotal(spans []span) int64 {
	var total int64
	for _, s := range spans {
		if s.Parent < 0 {
			total += s.End - s.Start
		}
	}
	return total
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// flush writes the spans to dir/trace-<workload>.json.
func (t *tracer) flush(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns since trace start", t.snapshot()})
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
