package mpc

import (
	"context"
	"runtime/debug"
	"sync"
	"testing"
)

// gcElem is a pointer-bearing element: its Vals backing array is reachable
// only through whichever typed slice currently holds the element.
type gcElem struct {
	ID   int64
	Vals []int64
}

var gcSink []byte // garbage the collector has to keep sweeping

// TestWireExchangeSurvivesGC sends pointer-bearing elements through
// several wired hops with the collector running almost continuously and
// every typed reference to earlier rounds dropped. The wire delivers
// copies of the payload bytes, as a socket does, so an inbox rebuilt from
// those bytes would hold pointers the collector never saw: the Vals arrays
// get freed under it and the run dies with "found pointer to free object"
// or reads back another element's values. An inbox taken from the pinned
// outbox by a typed append survives.
func TestWireExchangeSurvivesGC(t *testing.T) {
	const p, hops, n, width = 8, 6, 512, 8
	// When inboxes were still rebuilt from bytes, this died or read back
	// wrong values within the first 300 iterations in 12 of 12 full runs
	// and 17 of 18 -short runs; at a tenth of the elements it mostly passed.
	iters := 1500
	if testing.Short() {
		iters = 300
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				gcSink = make([]byte, 1<<12)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	for it := 0; it < iters; it++ {
		data := make([]gcElem, n)
		for i := range data {
			vals := make([]int64, width)
			for j := range vals {
				vals[j] = int64(it*10000 + i*10 + j)
			}
			data[i] = gcElem{ID: int64(i), Vals: vals}
		}
		ex := NewExec(context.Background(), 1).WithWire(&loopWire{})
		pt := DistributeIn(ex, data, p)
		data = nil
		for h := 0; h < hops; h++ {
			pt, _ = Route(pt, func(_ int, x gcElem) int { return int(x.ID+int64(h)) % p })
		}
		seen := 0
		for _, shard := range pt.Shards {
			for _, x := range shard {
				seen++
				if len(x.Vals) != width {
					t.Fatalf("iteration %d: element %d has %d values, want %d", it, x.ID, len(x.Vals), width)
				}
				for j, v := range x.Vals {
					if want := int64(it*10000) + x.ID*10 + int64(j); v != want {
						t.Fatalf("iteration %d: element %d value %d = %d, want %d", it, x.ID, j, v, want)
					}
				}
			}
		}
		if seen != n {
			t.Fatalf("iteration %d: %d elements arrived, want %d", it, seen, n)
		}
	}
}
