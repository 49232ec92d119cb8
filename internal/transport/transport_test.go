package transport

// transport_test.go exercises the TCP backend end to end on loopback
// peers: handshake, round trips, fault directives (drop, crash), the
// ownership split, and the peer counters.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"

	"mpcjoin/internal/mpc"
)

// bootCluster starts n loopback peers and a connected client; both are
// torn down with the test.
func bootCluster(t *testing.T, n int) *Client {
	t.Helper()
	addrs, release, err := Loopback(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	c, err := DialCluster(context.Background(), addrs)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mkRound(seq int64, attempt, pSrc, pDst int, msgs []mpc.WireMsg) *mpc.WireRound {
	return &mpc.WireRound{Seq: seq, Attempt: attempt, PSrc: pSrc, PDst: pDst, Crash: -1, Drop: -1, Msgs: msgs}
}

func TestExchangeRoundDelivers(t *testing.T) {
	c := bootCluster(t, 3)
	msgs := []mpc.WireMsg{
		{From: 0, To: 1, Units: 2, Payload: []byte{1, 2, 3, 4}},
		{From: 0, To: 6, Units: 1, Payload: []byte{5, 6}},
		{From: 2, To: 1, Units: 3, Payload: []byte{7, 8, 9, 10, 11, 12}},
		{From: 3, To: 3, Units: 1, Payload: []byte{13, 14}},
	}
	in, err := c.ExchangeRound(context.Background(), mkRound(1, 0, 4, 8, msgs))
	if err != nil {
		t.Fatalf("ExchangeRound: %v", err)
	}
	if got := in.Recv[1]; got != 5 {
		t.Fatalf("Recv[1] = %d, want 5", got)
	}
	if got := in.Recv[6]; got != 1 {
		t.Fatalf("Recv[6] = %d, want 1", got)
	}
	segs := in.Segs[1]
	if len(segs) != 2 || segs[0].From != 0 || segs[1].From != 2 {
		t.Fatalf("Segs[1] = %+v, want sources 0 then 2", segs)
	}
	if string(segs[0].Payload) != "\x01\x02\x03\x04" || string(segs[1].Payload) != "\x07\x08\x09\x0a\x0b\x0c" {
		t.Fatalf("Segs[1] payloads corrupted: %+v", segs)
	}
	if in.Lost != 0 {
		t.Fatalf("Lost = %d, want 0", in.Lost)
	}
}

func TestExchangeRoundDropIsPhysical(t *testing.T) {
	c := bootCluster(t, 2)
	msgs := []mpc.WireMsg{
		{From: 0, To: 0, Units: 1, Payload: []byte{1}},
		{From: 0, To: 3, Units: 2, Payload: []byte{2, 3}},
		{From: 1, To: 3, Units: 1, Payload: []byte{4}},
	}
	r := mkRound(1, 0, 2, 4, msgs)
	r.Drop = 1 // drop 0→3
	in, err := c.ExchangeRound(context.Background(), r)
	if err != nil {
		t.Fatalf("ExchangeRound: %v", err)
	}
	if in.Recv[3] != 1 {
		t.Fatalf("Recv[3] = %d, want 1 (dropped message delivered?)", in.Recv[3])
	}
	if len(in.Segs[3]) != 1 || in.Segs[3][0].From != 1 {
		t.Fatalf("Segs[3] = %+v, want only source 1", in.Segs[3])
	}
	// Retry of the same round without the drop restores full delivery —
	// the barrier's recovery path.
	r2 := mkRound(1, 1, 2, 4, msgs)
	in2, err := c.ExchangeRound(context.Background(), r2)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if in2.Recv[3] != 3 {
		t.Fatalf("retry Recv[3] = %d, want 3", in2.Recv[3])
	}
}

func TestExchangeRoundCrashLosesInbox(t *testing.T) {
	c := bootCluster(t, 2)
	msgs := []mpc.WireMsg{
		{From: 0, To: 0, Units: 1, Payload: []byte{1}},
		{From: 0, To: 2, Units: 2, Payload: []byte{2, 3}},
		{From: 1, To: 2, Units: 4, Payload: []byte{4, 5, 6, 7}},
	}
	r := mkRound(5, 0, 2, 4, msgs)
	r.Crash = 2
	in, err := c.ExchangeRound(context.Background(), r)
	if err != nil {
		t.Fatalf("ExchangeRound: %v", err)
	}
	if in.Recv[2] != 0 || in.Segs[2] != nil {
		t.Fatalf("crashed destination kept its inbox: recv=%d segs=%v", in.Recv[2], in.Segs[2])
	}
	if in.Lost != 6 {
		t.Fatalf("Lost = %d, want 6 (the crashed destination's assembled units)", in.Lost)
	}
	if in.Recv[0] != 1 {
		t.Fatalf("Recv[0] = %d, want 1 (crash must not affect other destinations)", in.Recv[0])
	}
}

func TestOwnerSplitCoversAllDestinations(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, pDst := range []int{1, 2, 3, 7, 16, 33} {
			covered := 0
			for i := 0; i < n; i++ {
				lo, hi := ownerSplit(pDst, n, i)
				covered += hi - lo
				for d := lo; d < hi; d++ {
					if got := owner(pDst, n, d); got != i {
						t.Fatalf("owner(%d,%d,%d) = %d, want %d", pDst, n, d, got, i)
					}
				}
			}
			if covered != pDst {
				t.Fatalf("split of %d over %d covers %d", pDst, n, covered)
			}
		}
	}
}

func TestPeerStatsCount(t *testing.T) {
	c := bootCluster(t, 1)
	msgs := []mpc.WireMsg{
		{From: 0, To: 0, Units: 3, Payload: []byte{1, 2, 3}},
		{From: 1, To: 1, Units: 2, Payload: []byte{4, 5}},
	}
	if _, err := c.ExchangeRound(context.Background(), mkRound(1, 0, 2, 2, msgs)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExchangeRound(context.Background(), mkRound(1, 1, 2, 2, msgs)); err != nil {
		t.Fatal(err)
	}
	stats, err := c.PeerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := stats[0]
	if s.Rounds != 2 || s.Retries != 1 || s.Msgs != 4 || s.Units != 10 || s.Bytes != 10 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDialRejectsVersionSkew(t *testing.T) {
	// A fake peer that answers Hello with a wrong-version frame: the
	// handshake must fail with a frame error, not mis-parse.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := readFrame(conn); err != nil {
			return
		}
		// Hand-build a HelloAck with version 99.
		raw := []byte{0, 0, 0, 6, 'M', 'P', 'C', 'X', 99, kindHelloAck}
		conn.Write(raw)
	}()
	_, err = DialCluster(context.Background(), []string{ln.Addr().String()})
	if err == nil {
		t.Fatal("handshake accepted a version-skewed peer")
	}
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("err = %v, want ErrFrame", err)
	}
}

func TestCancelledContextAbortsRound(t *testing.T) {
	// A listener that accepts and never replies: the round must return
	// promptly with the context's error instead of hanging.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Complete the handshake, then go silent.
			go func() {
				if _, _, err := readFrame(conn); err != nil {
					return
				}
				writeFrame(conn, kindHelloAck, nil)
			}()
		}
	}()
	c, err := DialCluster(context.Background(), []string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = c.ExchangeRound(ctx, mkRound(1, 0, 1, 1, []mpc.WireMsg{{From: 0, To: 0, Units: 1, Payload: []byte{9}}}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLoopbackPeersServeUntilReleased: the helper's peers carry a round
// like any hand-booted tier, and its release func is what closes them.
func TestLoopbackPeersServeUntilReleased(t *testing.T) {
	addrs, release, err := Loopback(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialCluster(context.Background(), addrs)
	if err != nil {
		release()
		t.Fatal(err)
	}
	in, err := c.ExchangeRound(context.Background(), mkRound(1, 0, 2, 4, []mpc.WireMsg{
		{From: 0, To: 3, Units: 2, Payload: []byte{1, 2}},
		{From: 1, To: 3, Units: 1, Payload: []byte{3}},
	}))
	if err != nil || in.Recv[3] != 3 {
		t.Errorf("round over loopback peers: Recv[3] = %v, err %v, want 3", in, err)
	}
	c.Close()
	release()
	for _, addr := range addrs {
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Errorf("peer %s still accepts connections after release", addr)
		}
	}
}

// TestFromFlags covers the sweep CLIs' shared -transport handling: both
// spellings of in-process, named peers, the self-booted tier, and the
// usage error.
func TestFromFlags(t *testing.T) {
	var stderr bytes.Buffer
	for _, name := range []string{"", "inproc"} {
		tr, release, status := FromFlags("prog", &stderr, name, "ignored:1")
		if tr != nil || status != 0 || stderr.Len() != 0 {
			t.Fatalf("-transport %q: transport %v, status %d, stderr %q", name, tr, status, &stderr)
		}
		release()
	}

	tr, release, status := FromFlags("prog", &stderr, "tcp", " 10.0.0.1:7 ,,10.0.0.2:7,")
	if status != 0 || stderr.Len() != 0 {
		t.Fatalf("named peers: status %d, stderr %q", status, &stderr)
	}
	release()
	if got, want := tr.(tcp).addrs, []string{"10.0.0.1:7", "10.0.0.2:7"}; !slices.Equal(got, want) {
		t.Fatalf("named peers = %v, want %v (nothing booted)", got, want)
	}

	tr, release, status = FromFlags("prog", &stderr, "tcp", "")
	if status != 0 || !strings.Contains(stderr.String(), "prog: exchanging over tcp via 3 loopback shuffle peers") {
		t.Fatalf("self-booted tier: status %d, stderr %q", status, &stderr)
	}
	w, err := tr.Connect(context.Background())
	if err != nil {
		t.Fatalf("connecting to the self-booted tier: %v", err)
	}
	w.Close()
	release()
	if _, err := tr.Connect(context.Background()); err == nil {
		t.Fatal("self-booted tier still reachable after release")
	}

	stderr.Reset()
	if _, _, status := FromFlags("prog", &stderr, "udp", ""); status != 2 || !strings.Contains(stderr.String(), `prog: unknown -transport "udp"`) {
		t.Fatalf("unknown backend: status %d, stderr %q", status, &stderr)
	}
}
