package mpcjoin

// Fingerprint resolves opts exactly as Execute would and returns a 64-bit
// canonical hash of every knob that can change what a query returns —
// engine selection, cluster size, the run seed and the fault schedule.
// Knobs that only change how the work runs
// (WithWorkers, WithTrace, WithTransport) do not contribute, because they
// are bit-identical by construction.
//
// The hash is order-independent — options are declarative and resolved on
// a builder, so any permutation of the same options fingerprints alike —
// and it applies the same defaults Execute applies, so an absent option
// and its explicit default collide. Conflicting or invalid options return
// the same error Execute would.
//
// The serving tier keys its result cache on this value: together with the
// dataset versions, the query, the semiring and the engine it uniquely
// determines the rows, Stats and trace of an execution.
func Fingerprint(opts ...Option) (uint64, error) {
	co, err := buildOptions(opts)
	if err != nil {
		return 0, err
	}
	return co.ResultFingerprint(), nil
}
