package core

import (
	"encoding/binary"
	"math"
)

// ResultFingerprint hashes every Options knob that can change what a query
// returns — rows, Stats, trace content, or fault accounting — into one
// 64-bit value. Two Options with equal fingerprints produce bit-identical
// results for the same query over the same instance; that invariant is what
// lets the serving tier key its result cache on the fingerprint.
//
// Knobs that only change how fast or where the work runs are excluded by
// design: Workers (wall-clock only), Tracer (observer; whether a trace is
// *returned* is keyed separately by the caller) and Transport
// (bit-identical across backends). Fields are resolved to their effective defaults first so that e.g. Servers 0 and
// Servers 16 collide, as they must.
func (o Options) ResultFingerprint() uint64 {
	o = o.withDefaults()
	h := uint64(fnvOffset)
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		for _, x := range b {
			h ^= uint64(x)
			h *= fnvPrime
		}
	}
	putStr := func(s string) {
		put(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime
		}
	}
	put(uint64(o.Servers))
	// The engine ("" = planner's choice) changes Stats and trace content,
	// so it is part of the result identity. PlanOut, like Tracer, is an
	// observer and stays out.
	putStr(o.Engine)
	put(o.Seed)
	if o.Faults != nil {
		s := o.Faults.Spec()
		put(1)
		put(s.Seed)
		put(math.Float64bits(s.StragglerProb))
		put(uint64(s.StragglerDelay))
		put(math.Float64bits(s.CrashProb))
		put(uint64(s.CrashRound))
		put(math.Float64bits(s.DropProb))
		put(uint64(int64(s.MaxRetries)))
		put(uint64(s.StopAfter))
	} else {
		put(0)
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)
