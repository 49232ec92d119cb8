package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mpcjoin/internal/experiments"
)

// TestChaosSweep runs the full quick matrix: every engine must absorb
// every retryable schedule bit-identically and fail the budget schedule
// with the typed error.
func TestChaosSweep(t *testing.T) {
	res, err := Run(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(res); err != nil {
		t.Fatal(err)
	}
	if want := len(Engines()) * len(Scenarios()); len(res) != want {
		t.Fatalf("want %d results, got %d", want, len(res))
	}
	for _, r := range res {
		if r.Injected == 0 {
			t.Errorf("%s/%s: schedule injected nothing — the cell proves nothing", r.Engine, r.Scenario)
		}
		if r.Scenario == "budget-exhausted" && !r.BudgetErr {
			t.Errorf("%s/%s: budget schedule did not raise ErrFaultBudgetExceeded", r.Engine, r.Scenario)
		}
	}
}

// TestChaosDeterministicAcrossWorkers: the whole sweep — results, row
// hashes, stats and fault accounting — must be identical for any worker
// count.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	want, err := Run(Config{Quick: true, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := Run(Config{Quick: true, Seed: 7, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("workers=%d: %s/%s differs:\n got %+v\nwant %+v",
						w, want[i].Engine, want[i].Scenario, got[i], want[i])
				}
			}
		}
	}
}

// TestChaosWriteJSON: the artifact is a JSON array that round-trips.
func TestChaosWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.json")
	if err := experiments.WriteJSON[Result](path, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "[]\n" {
		t.Errorf("empty results = %q, want []", got)
	}
	res, err := Run(Config{Quick: true, Seed: 1, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteJSON(path, res); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []Result
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res) {
		t.Errorf("round-trip lost results: %d vs %d", len(back), len(res))
	}
}
