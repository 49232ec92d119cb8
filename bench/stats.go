package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least q·n samples at or below it.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	return s[min(max(rank, 0), n-1)]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// tailLadder is the percentiles a report may quote, lowest first.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99}

// highestPercentile picks the highest rung of tailLadder that still has
// at least ten samples beyond it, the rule for quoting a tail from n
// samples; with fewer than 20 samples only the median qualifies.
func highestPercentile(n int) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			best = q
		}
	}
	return best
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samples groups latencies by op class, keeping first-seen class order so
// sums over classes add in a fixed order.
type samples struct {
	order []string
	by    map[string][]float64
}

func (s *samples) add(class string, v float64) {
	if s.by == nil {
		s.by = make(map[string][]float64)
	}
	if _, ok := s.by[class]; !ok {
		s.order = append(s.order, class)
	}
	s.by[class] = append(s.by[class], v)
}

func (s *samples) all() []float64 {
	var out []float64
	for _, c := range s.order {
		out = append(out, s.by[c]...)
	}
	return out
}

// passOfMedians is one pass with each op class at its median over reps,
// weighted by how often the class occurred per pass: robust to one noisy
// rep where a mean over passes is not.
func (s *samples) passOfMedians(passes int) float64 {
	var t float64
	for _, c := range s.order {
		t += float64(len(s.by[c])) / float64(passes) * median(s.by[c])
	}
	return t
}
