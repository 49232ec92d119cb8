package main

// TestClusterSmoke is the multi-process cluster lane: build the daemon
// with the race detector, boot two shuffle peers and a coordinator on
// ephemeral ports, register a dataset, run one query per strategy whose
// exchange rounds travel over real TCP, compare every answer against an
// in-process golden run of the same query, absorb a fault schedule over
// the wire, and drain everything with SIGTERM. `make cluster-smoke` runs
// exactly this test.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// bootProc starts bin with args, waits for the "listening on" line with
// the given prefix, and returns the scraped address. The process is
// SIGTERMed (then killed) and waited on at cleanup.
func bootProc(t *testing.T, bin, prefix string, args ...string) (addr string, term func() error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
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

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			addr = strings.TrimSpace(a)
			break
		}
	}
	if addr == "" {
		t.Fatalf("%s never reported its address: %v", strings.Join(cmd.Args, " "), sc.Err())
	}
	go func() { // drain remaining output so the child never blocks
		for sc.Scan() {
		}
	}()

	return addr, func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		select {
		case <-exited:
			return exitErr
		case <-time.After(60 * time.Second):
			return fmt.Errorf("process did not exit after SIGTERM")
		}
	}
}

func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping e2e smoke in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "mpcd")
	build := exec.Command("go", "build", "-race", "-o", bin, "mpcjoin/cmd/mpcd")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// Two shuffle peers, then two coordinators over them: one exchanging
	// over TCP and one plain in-process golden, so every comparison below
	// is cross-transport on identical inputs.
	peer1, term1 := bootProc(t, bin, "mpcd peer listening on ", "-peer", "-addr", "127.0.0.1:0")
	peer2, term2 := bootProc(t, bin, "mpcd peer listening on ", "-peer", "-addr", "127.0.0.1:0")
	coord, termC := bootProc(t, bin, "mpcd listening on ",
		"-addr", "127.0.0.1:0", "-drain-timeout", "30s", "-peers", peer1+","+peer2)
	golden, termG := bootProc(t, bin, "mpcd listening on ",
		"-addr", "127.0.0.1:0", "-drain-timeout", "30s")

	post := func(base, path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post("http://"+base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s%s: %v", base, path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	const dataset = `{"name":"E","arity":2,"generate":{"n":1500,"dom":40,"seed":42}}`
	for _, base := range []string{coord, golden} {
		if code, out := post(base, "/v1/datasets", dataset); code != http.StatusOK {
			t.Fatalf("register on %s: %d %s", base, code, out)
		}
	}

	type answer struct {
		Rows  [][]any `json:"rows"`
		Stats struct {
			Rounds    int
			MaxLoad   int
			TotalComm int64
			SumLoad   int64
		} `json:"stats"`
	}
	query := func(base, body string) answer {
		t.Helper()
		code, out := post(base, "/v2/query", body)
		if code != http.StatusOK {
			t.Fatalf("query on %s: %d %s", base, code, out)
		}
		var a answer
		if err := json.Unmarshal(out, &a); err != nil {
			t.Fatalf("query on %s: %v", base, err)
		}
		return a
	}

	// One query per strategy; the TCP answer must be bit-identical to the
	// in-process golden — rows and metered Stats.
	for _, strat := range []string{"auto", "yannakakis", "tree"} {
		body := fmt.Sprintf(`{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"E"},{"name":"R2","attrs":["B","C"],"dataset":"E"}],"group_by":["A"],"strategy":%q,"options":{"workers":2,"seed":9,"cache":"off"}}`, strat)
		tcpAns := query(coord, body)
		goldAns := query(golden, body)
		if len(tcpAns.Rows) == 0 || tcpAns.Stats.Rounds == 0 {
			t.Fatalf("strategy %s: empty result or no metering over tcp", strat)
		}
		if fmt.Sprint(tcpAns.Rows) != fmt.Sprint(goldAns.Rows) {
			t.Fatalf("strategy %s: rows diverge across transports", strat)
		}
		if tcpAns.Stats != goldAns.Stats {
			t.Fatalf("strategy %s: stats diverge: tcp %+v, inproc %+v", strat, tcpAns.Stats, goldAns.Stats)
		}
		t.Logf("strategy %s ok over tcp (%d rows, %d rounds, load %d)",
			strat, len(tcpAns.Rows), tcpAns.Stats.Rounds, tcpAns.Stats.MaxLoad)
	}

	// A fault schedule over the wire: drops are real elided frames,
	// detected at the barrier and retried; the answer must still match
	// the fault-free golden and the report must show injections.
	{
		body := `{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"E"},{"name":"R2","attrs":["B","C"],"dataset":"E"}],"group_by":["A"],` +
			`"options":{"workers":2,"seed":9,"faults":{"drop_prob":0.2,"max_retries":10}}}`
		code, out := post(coord, "/v2/query", body)
		if code != http.StatusOK {
			t.Fatalf("faulted v2 query: %d %s", code, out)
		}
		var qr struct {
			Rows   [][]any `json:"rows"`
			Faults struct {
				Injected int `json:"injected"`
				Drops    int `json:"drops"`
				Retried  int `json:"retried"`
			} `json:"faults"`
		}
		if err := json.Unmarshal(out, &qr); err != nil {
			t.Fatalf("faulted v2 query: %v", err)
		}
		goldAns := query(golden, `{"relations":[{"name":"R1","attrs":["A","B"],"dataset":"E"},{"name":"R2","attrs":["B","C"],"dataset":"E"}],"group_by":["A"],"options":{"workers":2,"seed":9,"cache":"off"}}`)
		if fmt.Sprint(qr.Rows) != fmt.Sprint(goldAns.Rows) {
			t.Fatalf("faulted tcp rows diverge from fault-free golden")
		}
		if qr.Faults.Drops == 0 || qr.Faults.Retried == 0 {
			t.Fatalf("fault schedule dropped nothing over the wire: %+v", qr.Faults)
		}
		t.Logf("fault schedule absorbed over tcp (injected=%d drops=%d retried=%d)",
			qr.Faults.Injected, qr.Faults.Drops, qr.Faults.Retried)
	}

	// Graceful drain, coordinator first (peers must outlive it), then the
	// peers and the golden daemon.
	for _, term := range []func() error{termC, termG, term1, term2} {
		if err := term(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
}
