package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// checks basic integrity: rows present, no verification mismatches.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Config{Quick: true, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != id {
				t.Fatalf("table id %q", tab.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			out := tab.Format()
			if strings.Contains(out, "MISMATCH") {
				t.Fatalf("verification mismatch:\n%s", out)
			}
			if !strings.Contains(out, tab.Title) {
				t.Fatal("format missing title")
			}
		})
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", Config{Quick: true}); err == nil {
		t.Fatal("expected error")
	}
}

func TestFitExponent(t *testing.T) {
	// y = 5·x^{-2/3} exactly.
	xs := []float64{4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * 1 / (x * x)
	}
	if k := FitExponent(xs, ys); k < -2.01 || k > -1.99 {
		t.Fatalf("exponent = %v, want -2", k)
	}
}

// TestMMLoadShape asserts the headline result's shape in quick mode: the
// new algorithm beats the baseline and the gap widens with OUT.
func TestMMLoadShape(t *testing.T) {
	tab, err := Run("T1-MM-load", Config{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Column 5 is L_yann/L_new; it must be ≥ 1 at the largest OUT and
	// larger at the last row than the first.
	first := atofCol(t, tab.Rows[0][5])
	last := atofCol(t, tab.Rows[len(tab.Rows)-1][5])
	if last < 1 {
		t.Fatalf("baseline beat the new algorithm at large OUT: ratio %v\n%s", last, tab.Format())
	}
	if last <= first*0.8 {
		t.Fatalf("ratio did not widen with OUT: first %v last %v\n%s", first, last, tab.Format())
	}
}

// TestRoundsConstantInN asserts EXPERIMENTS.md's T1-rounds sentence at quick
// size: every class runs exactly as many rounds at 16·N as at N.
func TestRoundsConstantInN(t *testing.T) {
	tab, err := Run("T1-rounds", Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d classes, want 5\n%s", len(tab.Rows), tab.Format())
	}
	for _, row := range tab.Rows {
		nS, rS, nL, rL := atofCol(t, row[1]), atofCol(t, row[2]), atofCol(t, row[3]), atofCol(t, row[4])
		if nL != 16*nS || rS != rL || row[5] != "yes" {
			t.Errorf("%s: %v rounds at N = %v, %v at N = %v (want equal, at 16·N)", row[0], rS, nS, rL, nL)
		}
	}
}

func atofCol(t *testing.T, s string) float64 {
	t.Helper()
	var x float64
	if _, err := fmt.Sscan(s, &x); err != nil {
		t.Fatalf("bad float %q", s)
	}
	return x
}
