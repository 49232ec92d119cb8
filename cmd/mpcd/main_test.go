package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServiceSmoke is the end-to-end smoke lane: build the daemon with the
// race detector, boot it on an ephemeral port, register a generated
// dataset, run one query per strategy, scrape /metrics, and shut down
// gracefully with SIGTERM while confirming the drain completes cleanly.
// `make service-smoke` runs exactly this test.
func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping e2e smoke in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "mpcd")
	build := exec.Command("go", "build", "-race", "-o", bin, "mpcjoin/cmd/mpcd")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain-timeout", "30s",
		"-capacity", "2", "-max-queue", "8", "-tenant-queue", "1", "-log-format", "json")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// exitErr is closed-over by the waiter goroutine; exited is closed
	// (not sent on) so both the test body and Cleanup can observe it.
	var exitErr error
	exited := make(chan struct{})
	go func() { exitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})

	// The daemon prints "mpcd listening on HOST:PORT" once bound.
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "mpcd listening on "); ok {
			base = "http://" + strings.TrimSpace(addr)
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never reported its address: %v", sc.Err())
	}
	go func() { // drain remaining output so the child never blocks on stdout
		for sc.Scan() {
		}
	}()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	// Register a generated dataset and query it under every strategy.
	code, out := post("/v1/datasets", `{"name":"E","arity":2,"generate":{"n":1500,"dom":40,"seed":42}}`)
	if code != http.StatusOK {
		t.Fatalf("register: %d %s", code, out)
	}
	var rows []string
	for _, strat := range []string{"auto", "yannakakis", "tree"} {
		body := fmt.Sprintf(`{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"E"},{"name":"R2","attrs":["B","C"],"dataset":"E"}],"group_by":["A"],"strategy":%q,"options":{"workers":2,"seed":9,"cache":"off"}}`, strat)
		code, out := post("/v2/query", body)
		if code != http.StatusOK {
			t.Fatalf("query %s: %d %s", strat, code, out)
		}
		var qr struct {
			Rows  [][]any `json:"rows"`
			Stats struct {
				Rounds  int
				SumLoad int64
			} `json:"stats"`
		}
		if err := json.Unmarshal(out, &qr); err != nil {
			t.Fatalf("query %s: %v", strat, err)
		}
		if len(qr.Rows) == 0 || qr.Stats.Rounds == 0 {
			t.Fatalf("query %s: empty result or no metering: %s", strat, out)
		}
		rows = append(rows, fmt.Sprint(qr.Rows))
		t.Logf("strategy %s ok (%d rows, %d rounds)", strat, len(qr.Rows), qr.Stats.Rounds)
	}
	if rows[0] != rows[1] || rows[1] != rows[2] {
		t.Fatalf("strategies disagree: %v", rows)
	}

	// The same query with a fault schedule the retry plane must absorb —
	// rows must match the fault-free answers exactly and the response
	// reports the faults.
	{
		body := `{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"E"},{"name":"R2","attrs":["B","C"],"dataset":"E"}],"group_by":["A"],` +
			`"options":{"workers":2,"seed":9,"faults":{"crash_prob":0.1,"drop_prob":0.1,"max_retries":10}}}`
		code, out := post("/v2/query", body)
		if code != http.StatusOK {
			t.Fatalf("v2 query: %d %s", code, out)
		}
		var qr struct {
			Rows   [][]any `json:"rows"`
			Faults struct {
				Injected int `json:"injected"`
			} `json:"faults"`
		}
		if err := json.Unmarshal(out, &qr); err != nil {
			t.Fatalf("v2 query: %v", err)
		}
		if fmt.Sprint(qr.Rows) != rows[0] {
			t.Fatalf("faulted rows diverge from fault-free: %v vs %v", qr.Rows, rows[0])
		}
		if qr.Faults.Injected == 0 {
			t.Fatalf("v2 fault schedule injected nothing: %s", out)
		}
		// An execution knob outside "options" must be rejected with the
		// typed error envelope.
		code, out = post("/v2/query", `{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"E"}],"servers":4}`)
		var env struct {
			Error struct {
				Cause string `json:"cause"`
			} `json:"error"`
		}
		if err := json.Unmarshal(out, &env); err != nil || code != http.StatusBadRequest || env.Error.Cause != "bad_request" {
			t.Fatalf("v2 flat-knob rejection: %d %s (%v)", code, out, err)
		}
		t.Logf("v2 ok (faults injected=%d, typed errors)", qr.Faults.Injected)
	}

	// Metrics reflect the completed queries (three strategies + one faulted).
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Completed int64 `json:"completed"`
		InFlight  int64 `json:"in_flight"`
		SumLoad   int64 `json:"sum_load"`
		ByEngine  []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
		} `json:"by_engine"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.Completed != 4 || snap.InFlight != 0 || snap.SumLoad == 0 {
		t.Fatalf("metrics: %+v", snap)
	}
	if len(snap.ByEngine) == 0 {
		t.Fatalf("metrics: no per-engine counts: %+v", snap)
	}

	// Cache-hit round trip: the same v2 query twice — the first executes,
	// the second is served from the result cache with identical rows.
	{
		body := `{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"E"},{"name":"R2","attrs":["B","C"],"dataset":"E"}],"group_by":["A"],"options":{"workers":2,"seed":9}}`
		code, cold := post("/v2/query", body)
		if code != http.StatusOK || strings.Contains(string(cold), `"cached":true`) {
			t.Fatalf("cold v2 query: %d %s", code, cold)
		}
		code, warm := post("/v2/query", body)
		if code != http.StatusOK || !strings.Contains(string(warm), `"cached":true`) {
			t.Fatalf("warm v2 query not served from cache: %d %s", code, warm)
		}
		var coldQR, warmQR struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.Unmarshal(cold, &coldQR); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(warm, &warmQR); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(coldQR.Rows) != fmt.Sprint(warmQR.Rows) {
			t.Fatalf("cached rows diverge: %v vs %v", warmQR.Rows, coldQR.Rows)
		}
		t.Logf("cache round trip ok (%d rows)", len(warmQR.Rows))
	}

	// Tenant quota: with -capacity 2 and -tenant-queue 1, a burst of
	// whole-capacity queries from one tenant overflows its queue share and
	// gets shed with 429, while a query from another tenant still queues
	// behind the burst and completes.
	{
		code, out := post("/v1/datasets", `{"name":"Mid","arity":2,"generate":{"n":8000,"dom":120,"seed":7}}`)
		if code != http.StatusOK {
			t.Fatalf("register Mid: %d %s", code, out)
		}
		postTenant := func(tenant, body string) (int, []byte) {
			req, err := http.NewRequest(http.MethodPost, base+"/v2/query", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-MPC-Tenant", tenant)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("tenant POST: %v", err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return resp.StatusCode, buf.Bytes()
		}
		const flood = 6
		floodBody := func(i int) string {
			return fmt.Sprintf(`{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"Mid"},{"name":"R2","attrs":["B","C"],"dataset":"Mid"}],"group_by":["A"],"options":{"workers":2,"seed":%d,"cache":"off"}}`, 100+i)
		}
		codes := make(chan int, flood)
		for i := 0; i < flood; i++ {
			go func(i int) {
				code, _ := postTenant("noisy", floodBody(i))
				codes <- code
			}(i)
		}
		quietCode, quietOut := postTenant("quiet", floodBody(999))
		if quietCode != http.StatusOK {
			t.Fatalf("quiet tenant query during flood: %d %s", quietCode, quietOut)
		}
		shed, served := 0, 0
		for i := 0; i < flood; i++ {
			switch c := <-codes; c {
			case http.StatusOK:
				served++
			case http.StatusTooManyRequests:
				shed++
			default:
				t.Fatalf("flood query status %d", c)
			}
		}
		if shed == 0 || served == 0 {
			t.Fatalf("tenant flood: served=%d shed=%d, want both > 0", served, shed)
		}
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var tsnap struct {
			TenantShed []struct {
				Name  string `json:"name"`
				Count int64  `json:"count"`
			} `json:"tenant_shed"`
		}
		if err := json.NewDecoder(mresp.Body).Decode(&tsnap); err != nil {
			t.Fatal(err)
		}
		mresp.Body.Close()
		noisyShed := int64(0)
		for _, c := range tsnap.TenantShed {
			if c.Name == "noisy" {
				noisyShed = c.Count
			}
		}
		if noisyShed != int64(shed) {
			t.Fatalf("tenant_shed[noisy] = %d, want %d", noisyShed, shed)
		}
		t.Logf("tenant quota ok (served=%d shed=%d, quiet tenant unaffected)", served, shed)
	}

	// Graceful shutdown: SIGTERM drains and the process exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			t.Fatalf("daemon exited with %v, want clean drain", exitErr)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	// The JSON access log (read only after exit: the buffer is not
	// synchronized with the child) carries one structured line per query
	// with tenant, cache and outcome fields.
	logs := stderr.String()
	for _, want := range []string{`"cache_hit":true`, `"tenant":"noisy"`, `"tenant":"quiet"`, `"cause":"queue_full"`, `"path":"/v2/query"`} {
		if !strings.Contains(logs, want) {
			t.Fatalf("access log missing %s:\n%s", want, logs)
		}
	}
}

// TestDrainCancelsInFlight is the smoke-lane regression for the drain
// cause: a query still running when the drain window closes is cancelled
// by the daemon and must be recorded under cancel cause "drain" (not
// "client"), which the daemon reports in its final log line.
func TestDrainCancelsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping e2e smoke in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "mpcd")
	build := exec.Command("go", "build", "-race", "-o", bin, "mpcjoin/cmd/mpcd")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain-timeout", "500ms")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	exited := make(chan struct{})
	go func() { exitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})

	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "mpcd listening on "); ok {
			base = "http://" + strings.TrimSpace(addr)
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never reported its address: %v", sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()

	resp, err := http.Post(base+"/v1/datasets", "application/json",
		strings.NewReader(`{"name":"Big","arity":2,"generate":{"n":400000,"dom":500,"seed":1}}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %v %v", resp, err)
	}
	resp.Body.Close()

	// A query that will far outlive the 500ms drain window.
	go func() {
		body := `{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"Big"},{"name":"R2","attrs":["B","C"],"dataset":"Big"}],"group_by":["A","C"],"options":{"cache":"off"}}`
		resp, err := http.Post(base+"/v2/query", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			InFlight int64 `json:"in_flight"`
		}
		if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		mresp.Body.Close()
		if snap.InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never started executing")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			t.Fatalf("daemon exited with %v, want clean forced drain\nstderr:\n%s", exitErr, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	logs := stderr.String()
	if !strings.Contains(logs, "drain=1") {
		t.Fatalf("final log does not record the drain cancellation:\n%s", logs)
	}
	if strings.Contains(logs, "client=") {
		t.Fatalf("drain cancellation mislabeled as client disconnect:\n%s", logs)
	}
}
