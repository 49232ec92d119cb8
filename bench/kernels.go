package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mpcjoin/internal/mpc"
)

// kernelNames are the mpc primitives micro-timed in every traced run, in
// the shapes of the repository's own kernel benchmarks (p = 16, n = 16384,
// int64 keys drawn from n/4 values).
var kernelNames = []string{"route", "sort", "groupbykey", "reducebykey", "rebalance", "exchange"}

const (
	kernelP = 16
	kernelN = 16384
)

// kernelProbes times each primitive on a synthetic Part and counts the
// allocations of one call. Every workload's rounds are made of these, so
// the numbers are reported whichever workload the traced run is for.
func kernelProbes(lc *layerCtx) error {
	ex := mpc.NewExec(context.Background(), 1)
	rng := rand.New(rand.NewSource(42))
	data := make([]int64, kernelN)
	for i := range data {
		data[i] = int64(rng.Intn(kernelN / 4))
	}
	pt := mpc.DistributeIn(ex, data, kernelP)

	skew := mpc.NewPartIn[int64](ex, kernelP) // everything on server 0
	skew.Shards[0] = make([]int64, kernelN)
	for i := range skew.Shards[0] {
		skew.Shards[0][i] = int64(i)
	}

	outbox := make([][][]int64, kernelP)
	for src, shard := range pt.Shards {
		row := make([][]int64, kernelP)
		for _, x := range shard {
			d := int(uint64(x) % kernelP)
			row[d] = append(row[d], x)
		}
		outbox[src] = row
	}

	ident := func(x int64) int64 { return x }
	kernels := map[string]func() int{
		"route": func() int {
			res, _ := mpc.Route(pt, func(_ int, x int64) int { return int(uint64(x) % kernelP) })
			return res.Len()
		},
		"sort":       func() int { res, _ := mpc.Sort(pt, ident); return res.Len() },
		"groupbykey": func() int { res, _ := mpc.GroupByKey(pt, ident); return res.Len() },
		"reducebykey": func() int {
			res, _ := mpc.ReduceByKey(pt, ident, func(a, b int64) int64 { return a + b })
			return res.Len()
		},
		"rebalance": func() int { res, _ := mpc.Rebalance(skew); return res.Len() },
		"exchange":  func() int { res, _ := mpc.ExchangeIn(ex, kernelP, outbox); return res.Len() },
	}

	iters := 20 * lc.reps
	for _, name := range kernelNames {
		fn := kernels[name]
		if fn() == 0 { // also the warm-up call
			return fmt.Errorf("kernel probe %s returned nothing", name)
		}
		ds := make([]float64, iters)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range ds {
			t0 := time.Now()
			fn()
			ds[i] = us(time.Since(t0))
		}
		runtime.ReadMemStats(&m1)
		lc.ms.set("mpc."+name+"_us", median(ds))
		lc.ms.set("mpc."+name+"_allocs", float64((m1.Mallocs-m0.Mallocs)/uint64(iters)))
	}
	return nil
}
