// Package transport abstracts the exchange barrier of the MPC simulator
// behind pluggable backends. The simulator's cost model is defined
// entirely by what the barrier delivers — per-destination inboxes and
// received-unit counts — so a backend only has to reproduce that
// contract (internal/runtime's assembly order and counting) to be
// observationally identical: results, Stats, traces and fault reports
// are bit-for-bit the same on every backend.
//
// Two backends exist. InProc is the identity: it installs nothing, and
// executions run the assembly inline exactly as before (the default,
// zero overhead on the hot path). TCP delegates each round to a tier of
// shuffle peers over persistent connections carrying length-prefixed
// binary frames (see frame.go): the execution driver keeps all local
// computation and streams each round's counted outbox frames to the
// peers, which assemble the per-destination inboxes and stream them
// back. Faults injected by the execution's fault plane are executed
// physically by this backend — dropped frames never reach a socket,
// crashed destinations lose their assembled inboxes peer-side — and are
// detected and retried by the unchanged barrier protocol in
// internal/mpc.
package transport

import (
	"context"
	"fmt"
	"io"
	"strings"

	"mpcjoin/internal/mpc"
)

// Transport is a factory for per-execution exchange wires. Connect is
// called once per execution; the returned wire carries that execution's
// rounds sequentially and is closed when the execution ends. A nil wire
// (with nil error) selects the in-process path.
type Transport interface {
	// Name identifies the backend ("inproc", "tcp") in flags, bench rows
	// and reports.
	Name() string
	// Connect establishes the execution's wire; nil means in-process.
	Connect(ctx context.Context) (mpc.Wire, error)
}

type inproc struct{}

func (inproc) Name() string                              { return "inproc" }
func (inproc) Connect(context.Context) (mpc.Wire, error) { return nil, nil }

// InProc returns the in-process backend: the identity transport, equal
// to not configuring one at all.
func InProc() Transport { return inproc{} }

type tcp struct{ addrs []string }

func (t tcp) Name() string { return "tcp" }
func (t tcp) Connect(ctx context.Context) (mpc.Wire, error) {
	return DialCluster(ctx, t.addrs)
}

// TCP returns the TCP backend over the given peer addresses. The
// address order is the cluster topology (it fixes destination
// ownership) and must be identical across coordinators.
func TCP(addrs ...string) Transport {
	return tcp{addrs: append([]string(nil), addrs...)}
}

// Loopback boots n shuffle peers on ephemeral loopback ports and returns
// their addresses; release closes them all. On error nothing is left open.
func Loopback(n int) (addrs []string, release func(), err error) {
	peers := make([]*Peer, 0, n)
	release = func() {
		for _, p := range peers {
			p.Close()
		}
	}
	for len(peers) < n {
		p, err := ListenPeer("127.0.0.1:0")
		if err != nil {
			release()
			return nil, nil, fmt.Errorf("booting loopback peer: %w", err)
		}
		peers = append(peers, p)
		addrs = append(addrs, p.Addr())
	}
	return addrs, release, nil
}

// FromFlags is the sweep CLIs' -transport / -transport-peers handling:
// "inproc" (or "") is the nil Transport; "tcp" is the TCP backend over the
// comma-separated peers, or — when none are named — over three loopback
// peers booted here and announced on stderr. A non-zero status is the exit
// status of a command that cannot go on, its reason already on stderr
// under the program's name: 2 for an unknown backend, 1 for peers that
// would not boot. Otherwise the caller defers release, which closes
// whatever was booted.
func FromFlags(prog string, stderr io.Writer, name, peers string) (t Transport, release func(), status int) {
	switch name {
	case "", "inproc":
		return nil, func() {}, 0
	case "tcp":
		var addrs []string
		for _, a := range strings.Split(peers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) > 0 {
			return TCP(addrs...), func() {}, 0
		}
		addrs, release, err := Loopback(3)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", prog, err)
			return nil, nil, 1
		}
		fmt.Fprintf(stderr, "%s: exchanging over tcp via %d loopback shuffle peers\n", prog, len(addrs))
		return TCP(addrs...), release, 0
	}
	fmt.Fprintf(stderr, "%s: unknown -transport %q (want inproc or tcp)\n", prog, name)
	return nil, nil, 2
}
