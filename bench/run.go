package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"time"

	"mpcjoin/internal/mpc"
)

// runner is one named workload: a fixed op list. Every workload is closed-loop and
// fixed-work: a pass is the same ops in the same order for a given seed,
// and the timed window is as many whole passes as fit.
type runner interface {
	// setup builds everything a pass needs from the seed. With warm it
	// also runs one op per instance (library) or fills the cache (service).
	setup(seed int64, warm bool) error
	teardown()
	// verify is the correctness gate: every distinct result against its
	// sequential reference. It returns ops attempted and ops wrong.
	verify() (attempted, failed int, err error)
	// pass runs the op list once. With a tracer it runs the same ops as
	// harness-side spans around each layer's public functions and fills
	// passResult.layer.
	pass(t *tracer, idx int) (*passResult, error)
	// probes measures the per-layer metrics that are not part of a pass.
	probes(lc *layerCtx) error
}

// opResult is one timed op.
type opResult struct {
	class string
	d     time.Duration
}

// passResult is what one pass reports.
type passResult struct {
	ops []opResult
	// attempted counts every op sent, failed those refused, errored or
	// answered wrongly; an op without a 200 has no latency sample.
	attempted, failed int
	wall              time.Duration
	// rounds is the MPC rounds the pass executed; exact is its determinism
	// fingerprint (rounds, max load and units moved per op) and must be
	// identical for every pass of a run, traced or not.
	rounds int64
	exact  []int64
	// loadOverBound is max over ops of MaxLoad / Table 1 formula.
	loadOverBound float64
	// layer holds a traced pass's per-layer values.
	layer map[string]float64
}

// layerCtx is what probes works with.
type layerCtx struct {
	ms  *metricSet
	log io.Writer
	// reps is how often a probe repeats (1 in smoke mode).
	reps int
	// untracedMS is the median untraced pass wall of this run; samples
	// holds those passes' latencies by op class.
	untracedMS float64
	samples    *samples
}

// parPass times the workload's pass at 2 workers: the scaling number a
// 1-CPU box could never show.
func (lc *layerCtx) parPass(pass func(workers int) (*passResult, error)) error {
	var par []float64
	for i := 0; i < lc.reps; i++ {
		pr, err := pass(2)
		if err != nil {
			return err
		}
		par = append(par, ms(pr.wall))
	}
	lc.ms.set("par_pass_ms", median(par))
	lc.ms.set("runtime.par_speedup_x", ratio(lc.untracedMS, median(par)))
	return nil
}

// execTotals sums what core.Options.Tracer saw move during the engine (or
// driver) executions of a traced pass, and how long those took.
type execTotals struct {
	exec                 time.Duration
	rounds, units, bytes int64
}

func (tot *execTotals) add(d time.Duration, rounds []mpc.RoundTrace) {
	tot.exec += d
	for _, r := range rounds {
		tot.rounds++
		tot.units += r.TotalUnits
		tot.bytes += r.Bytes
	}
}

// fill writes the mpc layer's pass-level metrics.
func (tot *execTotals) fill(layer map[string]float64) {
	layer["mpc.rounds_total"] = float64(tot.rounds)
	layer["mpc.units_total"] = float64(tot.units)
	layer["mpc.bytes_total"] = float64(tot.bytes)
	layer["mpc.us_per_round"] = ratio(us(tot.exec), float64(tot.rounds))
	layer["mpc.ns_per_unit"] = ratio(float64(tot.exec.Nanoseconds()), float64(tot.units))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
	log      io.Writer
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const (
	// An untraced run sets up setupReps times, then again until the set-ups
	// have taken setupBudget seconds together or there are maxSetupReps of
	// them; setup_s is the median.
	setupReps    = 3
	maxSetupReps = 9
	setupBudget  = 3.0
	// tracedReps is how many traced passes a traced run makes, and the
	// least number of untraced reference passes before them.
	tracedReps = 3
)

// smokeShrink is how much smoke mode divides every input size by.
const smokeShrink = 8

// newWorkload returns the named workload over inputs 1/shrink the size.
func newWorkload(name string, shrink int) (runner, error) {
	switch name {
	case "matmul_sweep":
		return &libWorkload{shrink: shrink, keys: []string{"b4", "b32", "z", "u"}}, nil
	case "tree_mix":
		return &libWorkload{shrink: shrink, keys: []string{"l3", "s3", "sl", "tw", "lz"}}, nil
	case matmulTCP:
		return &libWorkload{shrink: shrink, keys: []string{"b4", "b32"}, tcp: true}, nil
	case "graph_iter":
		return &graphWorkload{shrink: shrink}, nil
	case "service_cold":
		return &serviceWorkload{shrink: shrink}, nil
	case "service_mixed":
		return &serviceWorkload{shrink: shrink, mixed: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run executes one workload invocation and returns its result line.
func run(cfg config) (*result, error) {
	shrink := 1
	if cfg.smoke {
		shrink = smokeShrink
	}
	w, err := newWorkload(cfg.workload, shrink)
	if err != nil {
		return nil, err
	}
	env := readEnv()
	fmt.Fprintf(cfg.log, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(cfg.log, "env nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", env.NProc, env.GoMaxProcs, env.GoVersion, env.Commit)

	// Set-up, several times so setup_s is a median; the last one stays up.
	// A quick set-up (service_cold's takes 0.3 s) is the noisiest, so it
	// repeats until the set-ups have taken setupBudget together. A traced
	// run reports no setup_s and sets up once; smoke mode does everything
	// once.
	minSetups, maxSetups, nTraced := setupReps, maxSetupReps, tracedReps
	if cfg.trace || cfg.smoke {
		minSetups, maxSetups = 1, 1
	}
	if cfg.smoke {
		nTraced = 1
	}
	var setups []float64
	var setupTotal float64
	for i := 0; i < minSetups || (i < maxSetups && setupTotal < setupBudget); i++ {
		if i > 0 {
			w.teardown()
		}
		start := time.Now()
		if err := w.setup(cfg.seed, !cfg.smoke); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		setupTotal += setups[i]
	}
	defer w.teardown()

	res := &result{}
	res.Attempted, res.Failed, err = w.verify()
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}

	var first *passResult
	var all samples
	var walls []float64
	// onePass runs a pass, folds it into the tallies and enforces the
	// determinism contract: the harness must never time different work.
	onePass := func(t *tracer, idx int) (*passResult, error) {
		pr, err := w.pass(t, idx)
		if err != nil {
			return nil, err
		}
		res.Attempted += pr.attempted
		res.Failed += pr.failed
		if first == nil {
			first = pr
		} else if !slices.Equal(first.exact, pr.exact) {
			return nil, fmt.Errorf("determinism self-check: pass %d moved different work than pass 0 (rounds, max load or units differ: %v vs %v); refusing to time it", idx, pr.exact, first.exact)
		}
		return pr, nil
	}

	// Collect first so the memory walk's array reuses freed spans; the
	// reset that follows collects again, so the window starts from a clean
	// heap.
	runtime.GC()
	calibBefore, memBefore := calibrate(), calibrateMem()
	windowPeak := resetPeakRSS()
	alloc0 := totalAllocMB()
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minPasses := 2
	if cfg.trace {
		// A traced run's untraced window is the reference its traced passes
		// and its request percentiles are read against: half the time.
		budget, minPasses = budget/2, nTraced
	}
	if cfg.smoke {
		budget, minPasses = 0, 1
	}
	passes := 0
	for {
		elapsed := time.Since(start)
		if passes >= minPasses && elapsed+time.Duration(median(walls)*float64(time.Millisecond)) > budget {
			break
		}
		pr, err := onePass(nil, passes)
		if err != nil {
			return nil, err
		}
		for _, op := range pr.ops {
			all.add(op.class, ms(op.d))
		}
		walls = append(walls, ms(pr.wall))
		passes++
	}
	window := time.Since(start)
	allocMB := totalAllocMB() - alloc0
	peakMB := peakRSSMB()
	runtime.GC()
	calibAfter, memAfter := calibrate(), calibrateMem()

	fmt.Fprintf(cfg.log, "set-ups %d; window %.2fs passes %d ops %d; peak RSS mark reset before it: %v\n", len(setups), window.Seconds(), passes, len(all.all()), windowPeak)
	fmt.Fprintf(cfg.log, "calibration before/after the window: spin %.2f/%.2f ms, memory walk %.2f/%.2f ms\n",
		ms(calibBefore), ms(calibAfter), ms(memBefore), ms(memAfter))

	if !cfg.trace {
		e := newMetricSet(endToEnd)
		e.set("setup_s", median(setups))
		e.set("pass_ms", all.passOfMedians(passes))
		e.set("req_per_s", ratio(float64(len(all.all())), window.Seconds()))
		e.set("load_over_bound_max", first.loadOverBound)
		e.set("rounds_per_pass", float64(first.rounds))
		e.set("alloc_mb_per_pass", allocMB/float64(passes))
		e.set("peak_rss_mb", peakMB)
		for _, c := range all.order {
			fmt.Fprintf(cfg.log, "  class %-14s n=%-5d p50 %.3f ms\n", c, len(all.by[c]), median(all.by[c]))
		}
		report(cfg.log, endToEnd, e)
		res.Metrics = e.export()
	} else {
		l := newMetricSet(perLayer)
		t := newTracer()
		var tracedWalls []float64
		layers := make(map[string][]float64)
		for i := 0; i < nTraced; i++ {
			pr, err := onePass(t, passes+i)
			if err != nil {
				return nil, err
			}
			tracedWalls = append(tracedWalls, ms(pr.wall))
			for k, v := range pr.layer {
				layers[k] = append(layers[k], v)
			}
		}
		for k, vs := range layers {
			l.set(k, median(vs))
		}
		lc := &layerCtx{ms: l, log: cfg.log, reps: nTraced, untracedMS: median(walls), samples: &all}
		if err := w.probes(lc); err != nil {
			return nil, fmt.Errorf("per-layer probes: %w", err)
		}
		if err := kernelProbes(lc); err != nil {
			return nil, err
		}
		l.set("bench.trace_overhead_frac", ratio(median(tracedWalls), median(walls))-1)
		l.set("bench.calib_ms", median([]float64{ms(calibBefore), ms(calibAfter), ms(calibrate())}))
		l.set("bench.calib_mem_ms", median([]float64{ms(memBefore), ms(memAfter), ms(calibrateMem())}))
		l.set("failed_frac", ratio(float64(res.Failed), float64(res.Attempted)))

		spans := t.snapshot()
		shares, selfTotal := selfShares(spans)
		fmt.Fprintf(cfg.log, "traced pass: self times sum to %.1f ms of %.1f ms in root spans (%.2f%%)\n",
			float64(selfTotal)/1e6, float64(rootTotal(spans))/1e6, 100*ratio(float64(selfTotal), float64(rootTotal(spans))))
		names := make([]string, 0, len(shares))
		for name := range shares {
			names = append(names, name)
		}
		sort.Slice(names, func(a, b int) bool { return shares[names[a]] > shares[names[b]] })
		for _, name := range names {
			fmt.Fprintf(cfg.log, "  self %-16s %6.2f%%\n", name, 100*shares[name])
		}
		path, err := t.flush(cfg.outDir, cfg.workload)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "trace written to %s (%d spans)\n", path, len(spans))
		report(cfg.log, perLayer, l)
		res.Metrics = l.export()
	}

	res.Correct = res.Failed == 0
	fmt.Fprintf(cfg.log, "failed_frac %.6f ratio (%d of %d)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	return res, nil
}

// report prints every metric of defs by name with its unit.
func report(w io.Writer, defs []metricDef, vals *metricSet) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", d.Name, vals.get(d.Name), d.Unit)
	}
}
