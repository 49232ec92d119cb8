// Package semiring defines the commutative semiring abstraction that
// annotates every tuple flowing through the query engine, together with the
// standard instances used throughout the literature on annotated relations
// (Green, Karvounarakis, Tannen; Joglekar, Puttagunta, Ré).
//
// A commutative semiring (R, ⊕, ⊗) consists of a carrier set R with two
// associative, commutative operations such that
//
//   - (R, ⊕) is a commutative monoid with identity Zero,
//   - (R, ⊗) is a commutative monoid with identity One,
//   - ⊗ distributes over ⊕, and
//   - Zero annihilates: a ⊗ Zero = Zero.
//
// Unlike a ring, no additive inverses are required, so the engine never
// subtracts; this is precisely the model under which the Hu–Yi PODS'20
// algorithms (and their lower bounds) are stated. Several instances below
// are additionally idempotent (a ⊕ a = a), which is the class of semirings
// the paper's lower bounds (Theorems 2 and 3) already hold for.
package semiring

// Semiring is the interface every annotation algebra implements. W is the
// carrier type. Implementations must be value types safe for concurrent use
// (they carry no mutable state).
//
// Algorithms in this module treat W as opaque: the only permitted
// operations are Add, Mul, Zero and One. This mirrors the "semiring MPC
// model" of the paper, in which the only way a server creates new semiring
// elements is by adding or multiplying elements it already holds.
type Semiring[W any] interface {
	// Zero returns the identity of ⊕ (and the annihilator of ⊗).
	Zero() W
	// One returns the identity of ⊗.
	One() W
	// Add returns a ⊕ b.
	Add(a, b W) W
	// Mul returns a ⊗ b.
	Mul(a, b W) W
}

// Idempotent is a marker interface for semirings with a ⊕ a = a. The
// lower-bound audits insist on an idempotent semiring, as Theorems 2 and 3
// of the paper are proved for that class.
type Idempotent interface {
	IdempotentAdd() bool
}

// IsIdempotent reports whether s declares an idempotent ⊕.
func IsIdempotent(s any) bool {
	i, ok := s.(Idempotent)
	return ok && i.IdempotentAdd()
}

// ---------------------------------------------------------------------------
// Natural numbers / integers under (+, ×): the counting semiring.
// ---------------------------------------------------------------------------

// IntSumProd is the semiring (ℤ, +, ×). With all annotations set to 1 it
// computes COUNT(*) GROUP BY y; in general it computes sum-of-products, the
// semantics of ordinary sparse matrix multiplication over the integers.
type IntSumProd struct{}

func (IntSumProd) Zero() int64           { return 0 }
func (IntSumProd) One() int64            { return 1 }
func (IntSumProd) Add(a, b int64) int64  { return a + b }
func (IntSumProd) Mul(a, b int64) int64  { return a * b }
func (IntSumProd) Equal(a, b int64) bool { return a == b }

// ---------------------------------------------------------------------------
// Reals under (+, ×).
// ---------------------------------------------------------------------------

// FloatSumProd is the semiring (ℝ, +, ×) over float64. Note that floating
// point addition is not exactly associative; tests that compare against a
// reference engine use a tolerance. For exact experiments prefer IntSumProd.
type FloatSumProd struct{}

func (FloatSumProd) Zero() float64            { return 0 }
func (FloatSumProd) One() float64             { return 1 }
func (FloatSumProd) Add(a, b float64) float64 { return a + b }
func (FloatSumProd) Mul(a, b float64) float64 { return a * b }

// Equal compares with a small relative tolerance.
func (FloatSumProd) Equal(a, b float64) bool {
	const eps = 1e-9
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b > m {
		m = b
	}
	if -b > m {
		m = -b
	}
	return d <= eps*(1+m)
}

// ---------------------------------------------------------------------------
// Booleans under (∨, ∧): set semantics. Idempotent.
// ---------------------------------------------------------------------------

// BoolOrAnd is the Boolean semiring ({false,true}, ∨, ∧). Annotating every
// tuple with true turns a join-aggregate query into a join-project
// (conjunctive) query: the output is exactly π_y Q(R). It is idempotent, so
// it is admissible for the paper's lower-bound constructions.
type BoolOrAnd struct{}

func (BoolOrAnd) Zero() bool           { return false }
func (BoolOrAnd) One() bool            { return true }
func (BoolOrAnd) Add(a, b bool) bool   { return a || b }
func (BoolOrAnd) Mul(a, b bool) bool   { return a && b }
func (BoolOrAnd) Equal(a, b bool) bool { return a == b }
func (BoolOrAnd) IdempotentAdd() bool  { return true }

// ---------------------------------------------------------------------------
// Tropical semirings. Idempotent.
// ---------------------------------------------------------------------------

// tropInf is the additive identity of MinPlus (−tropInf for MaxPlus). We use
// a large sentinel rather than math.Inf so the carrier stays int64 and all
// arithmetic is exact. Workload weights must stay far below this value.
const tropInf int64 = 1 << 60

// satAdd adds two finite tropical weights, saturating at the ±tropInf
// sentinels so the result never escapes the carrier's domain: a sum at or
// above tropInf becomes ∞, a sum at or below −tropInf becomes −∞. Both
// tropical Muls route through this, which keeps their sentinels absorbing
// and exact for arbitrary (even adversarially large) finite inputs.
func satAdd(a, b int64) int64 {
	s := a + b
	if s >= tropInf {
		return tropInf
	}
	if s <= -tropInf {
		return -tropInf
	}
	return s
}

// MinPlus is the tropical semiring (ℤ ∪ {∞}, min, +). A join-aggregate
// query under MinPlus computes, per output group, the minimum total weight
// of any join result — e.g. shortest path lengths when the query is a line
// query over edge relations. Idempotent.
type MinPlus struct{}

// Inf returns the additive identity ("+∞") sentinel.
func (MinPlus) Inf() int64  { return tropInf }
func (MinPlus) Zero() int64 { return tropInf }
func (MinPlus) One() int64  { return 0 }

func (MinPlus) Add(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Mul is saturating addition so that ∞ ⊗ a = ∞ exactly. Saturation also
// applies to finite sums that reach the sentinel range: without it, a sum
// crossing tropInf would compare above the canonical ∞ and lose an
// Add(∞, ·) to the identity (x ⊕ 0̄ must return x), and deep Mul chains
// could wrap around int64. Results always stay in [−tropInf, tropInf].
func (MinPlus) Mul(a, b int64) int64 {
	if a >= tropInf || b >= tropInf {
		return tropInf
	}
	return satAdd(a, b)
}

func (MinPlus) Equal(a, b int64) bool { return a == b }
func (MinPlus) IdempotentAdd() bool   { return true }

// MaxPlus is the tropical semiring (ℤ ∪ {−∞}, max, +), computing the
// maximum-weight join result per group (e.g. critical paths). Idempotent.
type MaxPlus struct{}

// NegInf returns the additive identity ("−∞") sentinel.
func (MaxPlus) NegInf() int64 { return -tropInf }
func (MaxPlus) Zero() int64   { return -tropInf }
func (MaxPlus) One() int64    { return 0 }

func (MaxPlus) Add(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Mul is saturating addition so that −∞ ⊗ a = −∞ exactly. The finite-sum
// clamp matters here too: two large negative weights would otherwise sum
// below the −∞ sentinel and lose an Add(·, −∞) to the additive identity.
func (MaxPlus) Mul(a, b int64) int64 {
	if a <= -tropInf || b <= -tropInf {
		return -tropInf
	}
	return satAdd(a, b)
}

func (MaxPlus) Equal(a, b int64) bool { return a == b }
func (MaxPlus) IdempotentAdd() bool   { return true }

// MaxMin is the bottleneck semiring (ℤ ∪ {±∞}, max, min): the annotation of
// a group is the widest bottleneck over its join results (maximum over
// results of the minimum annotation along the result). Idempotent in both
// operations.
type MaxMin struct{}

func (MaxMin) Zero() int64 { return -tropInf }
func (MaxMin) One() int64  { return tropInf }

func (MaxMin) Add(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (MaxMin) Mul(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (MaxMin) Equal(a, b int64) bool { return a == b }
func (MaxMin) IdempotentAdd() bool   { return true }

// ---------------------------------------------------------------------------
// Why-provenance: sets of witness sets. Idempotent.
// ---------------------------------------------------------------------------

// Witness identifies a base tuple contributing to a derivation. Callers
// assign each base tuple a distinct Witness id.
type Witness uint32

// WitnessSet is a sorted, duplicate-free set of Witness ids: one minimal
// derivation ("proof") of an output tuple.
type WitnessSet []Witness

// Provenance is a why-provenance annotation: a set of witness sets, kept
// sorted and duplicate-free so equal annotations have equal representations.
type Provenance []WitnessSet

// WhyProvenance is the semiring of why-provenance (Green et al., PODS'07):
// ⊕ is union of witness-set families, ⊗ is pairwise union of witness sets.
// Zero is the empty family; One is the family containing only the empty
// witness set. It is idempotent, and annotations grow with the number of
// derivations, which makes it a deliberately heavy-weight stress test for
// the engine's "annotations are opaque" discipline.
type WhyProvenance struct{}

// Why constructs the provenance annotation of a base tuple with the given
// witness id: {{w}}.
func Why(w Witness) Provenance { return Provenance{WitnessSet{w}} }

func (WhyProvenance) Zero() Provenance { return nil }
func (WhyProvenance) One() Provenance  { return Provenance{WitnessSet{}} }

// Add returns the union of the two families, deduplicated.
func (WhyProvenance) Add(a, b Provenance) Provenance {
	merged := make(Provenance, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch compareWitnessSets(a[i], b[j]) {
		case -1:
			merged = append(merged, a[i])
			i++
		case 1:
			merged = append(merged, b[j])
			j++
		default:
			merged = append(merged, a[i])
			i++
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	if len(merged) == 0 {
		return nil
	}
	return merged
}

// Mul returns { s ∪ t : s ∈ a, t ∈ b }, normalized.
func (WhyProvenance) Mul(a, b Provenance) Provenance {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(Provenance, 0, len(a)*len(b))
	for _, s := range a {
		for _, t := range b {
			out = append(out, unionWitnessSets(s, t))
		}
	}
	return normalizeProvenance(out)
}

func (WhyProvenance) Equal(a, b Provenance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if compareWitnessSets(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func (WhyProvenance) IdempotentAdd() bool { return true }

func unionWitnessSets(s, t WitnessSet) WitnessSet {
	out := make(WitnessSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// compareWitnessSets orders witness sets first by length, then
// lexicographically, giving Provenance a canonical sorted form.
func compareWitnessSets(s, t WitnessSet) int {
	if len(s) != len(t) {
		if len(s) < len(t) {
			return -1
		}
		return 1
	}
	for i := range s {
		if s[i] != t[i] {
			if s[i] < t[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func normalizeProvenance(p Provenance) Provenance {
	if len(p) <= 1 {
		return p
	}
	sortProvenance(p)
	out := p[:1]
	for _, ws := range p[1:] {
		if compareWitnessSets(out[len(out)-1], ws) != 0 {
			out = append(out, ws)
		}
	}
	return out
}

func sortProvenance(p Provenance) {
	// Insertion sort is adequate: provenance families in tests are small,
	// and keeping this dependency-free avoids pulling sort into the hot
	// path for other semirings.
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && compareWitnessSets(p[j], p[j-1]) < 0; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// ---------------------------------------------------------------------------
// GF(2)-like parity semiring? Not a semiring use-case here; instead provide
// the "access control" / security semiring, a small total-order example.
// ---------------------------------------------------------------------------

// Clearance levels for the Security semiring, ordered from most permissive
// to most restrictive.
const (
	Public    uint8 = 0
	Internal  uint8 = 1
	Secret    uint8 = 2
	TopSecret uint8 = 3
	// Denied is the Zero of the Security semiring: no clearance suffices.
	Denied uint8 = 4
)

// Security is the access-control semiring (min, max) over clearance levels:
// the clearance needed for a join result is the max over its inputs, and
// the clearance needed for an output group is the min over its derivations
// (any one derivation suffices). Idempotent.
type Security struct{}

func (Security) Zero() uint8 { return Denied }
func (Security) One() uint8  { return Public }

func (Security) Add(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

func (Security) Mul(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}

func (Security) Equal(a, b uint8) bool { return a == b }
func (Security) IdempotentAdd() bool   { return true }
