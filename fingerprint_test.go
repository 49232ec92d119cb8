package mpcjoin

import (
	"math/rand"
	"testing"

	"mpcjoin/internal/core"
)

// TestFingerprintOrderIndependent asserts the canonical hash ignores the
// order options are supplied in.
func TestFingerprintOrderIndependent(t *testing.T) {
	opts := []Option{
		WithServers(8),
		WithEngine(EngineTree),
		WithSeed(42),
		WithFaults(FaultSpec{DropProb: 0.1, Seed: 9}),
		WithRetry(5),
	}
	want, err := Fingerprint(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(opts))
		shuffled := make([]Option, len(opts))
		for i, j := range perm {
			shuffled[i] = opts[j]
		}
		got, err := Fingerprint(shuffled...)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("permutation %v: fingerprint %x != %x", perm, got, want)
		}
	}
}

// TestFingerprintResultKnobsDistinct asserts that changing any
// result-affecting knob changes the hash.
func TestFingerprintResultKnobsDistinct(t *testing.T) {
	base, err := Fingerprint(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string][]Option{
		"servers":  {WithSeed(1), WithServers(8)},
		"baseline": {WithSeed(1), WithEngine(EngineYannakakis)},
		"tree":     {WithSeed(1), WithEngine(EngineTree)},
		"seed":     {WithSeed(2)},
		"faults":   {WithSeed(1), WithFaults(FaultSpec{DropProb: 0.1})},
	}
	seen := map[uint64]string{base: "base"}
	for name, opts := range variants {
		got, err := Fingerprint(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[got]; dup {
			t.Fatalf("%s collides with %s: %x", name, prev, got)
		}
		seen[got] = name
	}
	// Distinct fault schedules hash apart too.
	a, _ := Fingerprint(WithFaults(FaultSpec{DropProb: 0.1}))
	b, _ := Fingerprint(WithFaults(FaultSpec{DropProb: 0.2}))
	if a == b {
		t.Fatal("distinct fault specs collide")
	}
	// Retry budget is result-affecting (it decides whether a faulty run
	// completes or fails).
	c, _ := Fingerprint(WithFaults(FaultSpec{DropProb: 0.1}), WithRetry(1))
	if a == c {
		t.Fatal("retry budget did not change the fingerprint")
	}
}

// TestFingerprintExecutionKnobsIgnored asserts wall-clock-only knobs do
// not contribute.
func TestFingerprintExecutionKnobsIgnored(t *testing.T) {
	base, err := Fingerprint(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]Option{
		"workers":   {WithSeed(1), WithWorkers(8)},
		"trace":     {WithSeed(1), WithTrace()},
		"transport": {WithSeed(1), WithTransport(InProcTransport())},
	} {
		got, err := Fingerprint(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("%s changed the fingerprint: %x != %x", name, got, base)
		}
	}
}

// TestFingerprintDefaultsResolved asserts an absent option and its
// explicit default collide (the defaults are applied before hashing).
func TestFingerprintDefaultsResolved(t *testing.T) {
	implicit, err := Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Fingerprint(WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Fatalf("default Servers not resolved: %x != %x", implicit, explicit)
	}
}

// TestFingerprintOneEngineSpelling asserts the root option and the core
// field are one selection: forcing an engine through either fingerprints
// alike, and "auto" is the absent option. (The service's "strategy" field
// is pinned against the same core value in internal/server.)
func TestFingerprintOneEngineSpelling(t *testing.T) {
	for _, e := range []Engine{EngineYannakakis, EngineTree, "matmul-outsens"} {
		got, err := Fingerprint(WithSeed(3), WithEngine(e))
		if err != nil {
			t.Fatal(err)
		}
		if want := (core.Options{Seed: 3, Engine: string(e)}).ResultFingerprint(); got != want {
			t.Fatalf("WithEngine(%q) fingerprints %x, core.Options.Engine %x", e, got, want)
		}
	}
	auto, _ := Fingerprint(WithEngine(EngineAuto))
	if none, _ := Fingerprint(); auto != none {
		t.Fatalf("EngineAuto %x != no option %x", auto, none)
	}
}

// TestFingerprintConflictErrors asserts invalid combinations surface the
// same errors Execute reports.
func TestFingerprintConflictErrors(t *testing.T) {
	if _, err := Fingerprint(WithEngine("quantum")); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := Fingerprint(WithRetry(2)); err == nil {
		t.Fatal("WithRetry without WithFaults accepted")
	}
}
