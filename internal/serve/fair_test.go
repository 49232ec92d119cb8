package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestFairQueueFastPath(t *testing.T) {
	q := NewFairQueue(FairConfig{Capacity: 4, MaxQueue: 8})
	got, err := q.Acquire(context.Background(), "a", 3)
	if err != nil || got != 3 {
		t.Fatalf("got %d %v", got, err)
	}
	if q.InUse() != 3 {
		t.Fatalf("in use = %d", q.InUse())
	}
	q.Release(3)
	if q.InUse() != 0 {
		t.Fatalf("in use = %d after release", q.InUse())
	}
}

func TestFairQueueClampsOversized(t *testing.T) {
	q := NewFairQueue(FairConfig{Capacity: 2, MaxQueue: 8})
	got, err := q.Acquire(context.Background(), "a", 100)
	if err != nil || got != 2 {
		t.Fatalf("got %d %v, want clamp to 2", got, err)
	}
	q.Release(got)
}

func TestFairQueueGlobalBound(t *testing.T) {
	q := NewFairQueue(FairConfig{Capacity: 1, MaxQueue: 1})
	if _, err := q.Acquire(context.Background(), "a", 1); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		n, err := q.Acquire(context.Background(), "a", 1)
		if err == nil {
			q.Release(n)
		}
		errc <- err
	}()
	for q.Queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := q.Acquire(context.Background(), "b", 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	q.Release(1)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestFairQueueTenantQuota(t *testing.T) {
	q := NewFairQueue(FairConfig{Capacity: 1, MaxQueue: 10, TenantQueue: 2})
	if _, err := q.Acquire(context.Background(), "noisy", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Acquire(ctx, "noisy", 1)
		}()
	}
	for q.QueuedFor("noisy") != 2 {
		time.Sleep(time.Millisecond)
	}
	// Third queued request from the same tenant sheds on its quota...
	if _, err := q.Acquire(context.Background(), "noisy", 1); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("err = %v, want ErrTenantQueueFull", err)
	}
	// ...while another tenant still queues fine.
	quiet := make(chan error, 1)
	go func() {
		n, err := q.Acquire(context.Background(), "quiet", 1)
		if err == nil {
			q.Release(n)
		}
		quiet <- err
	}()
	for q.QueuedFor("quiet") != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel() // abandon the noisy waiters
	wg.Wait()
	q.Release(1)
	if err := <-quiet; err != nil {
		t.Fatalf("quiet tenant: %v", err)
	}
}

func TestFairQueueFIFOWithinTenant(t *testing.T) {
	q := NewFairQueue(FairConfig{Capacity: 1, MaxQueue: 8})
	if _, err := q.Acquire(context.Background(), "a", 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := q.Acquire(context.Background(), "a", 1); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			q.Release(1)
		}(i)
		// Serialize enqueue so FIFO order is well-defined.
		for q.QueuedFor("a") != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	q.Release(1)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

// TestFairQueueWeightedInterleave parks a flood from a noisy tenant and one
// request from a quiet tenant, then verifies the quiet tenant is served
// after at most ~weight-ratio noisy grants, not after the whole flood.
func TestFairQueueWeightedInterleave(t *testing.T) {
	q := NewFairQueue(FairConfig{
		Capacity: 1,
		MaxQueue: 32,
		Weights:  map[string]int64{"noisy": 1, "quiet": 1},
	})
	if _, err := q.Acquire(context.Background(), "hold", 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	park := func(tenant string) {
		wg.Add(1)
		before := q.QueuedFor(tenant)
		go func() {
			defer wg.Done()
			if _, err := q.Acquire(context.Background(), tenant, 1); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			q.Release(1)
		}()
		for q.QueuedFor(tenant) != before+1 {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 6; i++ {
		park("noisy")
	}
	park("quiet")
	q.Release(1)
	wg.Wait()

	pos := -1
	for i, tenant := range order {
		if tenant == "quiet" {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("quiet tenant never served")
	}
	// With equal weights and stride scheduling, the quiet request must land
	// within the first couple of grants, not behind the 6-deep flood.
	if pos > 2 {
		t.Fatalf("quiet tenant served at position %d of %v; flood starved it", pos, order)
	}
}

func TestFairQueueAbandonReleasesSlot(t *testing.T) {
	q := NewFairQueue(FairConfig{Capacity: 1, MaxQueue: 4})
	if _, err := q.Acquire(context.Background(), "a", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.Acquire(ctx, "a", 1)
		errc <- err
	}()
	for q.Queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if q.Queued() != 0 {
		t.Fatalf("queued = %d after abandon", q.Queued())
	}
	q.Release(1)
	// The queue must still function normally.
	n, err := q.Acquire(context.Background(), "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	q.Release(n)
}

// The two tests below were re-homed from internal/server's admission tests
// when the single-tenant server.Semaphore view was deleted; they drive the
// queue the way it did, through one anonymous tenant. The rest of that file
// was dropped as already pinned here: fast path → TestFairQueueFastPath,
// weight clamped to capacity → TestFairQueueClampsOversized, queue full →
// TestFairQueueGlobalBound, cancel while queued →
// TestFairQueueAbandonReleasesSlot.

// TestFairQueueHeavyHeadNotStarved checks a light late arrival cannot
// overtake a parked heavy waiter of the same tenant even when it would fit.
func TestFairQueueHeavyHeadNotStarved(t *testing.T) {
	q := NewFairQueue(FairConfig{Capacity: 4, MaxQueue: 16})
	ctx := context.Background()
	if _, err := q.Acquire(ctx, "", 3); err != nil {
		t.Fatal(err)
	}
	heavyHas := make(chan struct{})
	go func() {
		if _, err := q.Acquire(ctx, "", 3); err != nil {
			t.Error(err)
		}
		close(heavyHas)
	}()
	for q.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Capacity 4, 3 in use: a weight-1 acquire would fit, but the heavy
	// waiter is ahead — FIFO parks the light one behind it.
	lightHas := make(chan struct{})
	go func() {
		if _, err := q.Acquire(ctx, "", 1); err != nil {
			t.Error(err)
		}
		close(lightHas)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-lightHas:
		t.Fatal("light acquire overtook parked heavy waiter")
	default:
	}
	q.Release(3) // heavy (3) admitted; light (1) fits alongside it
	<-heavyHas
	<-lightHas
	q.Release(3)
	q.Release(1)
	if got := q.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0", got)
	}
}

// TestFairQueueStress hammers the queue from many goroutines and checks
// the capacity invariant is never violated. Run under -race.
func TestFairQueueStress(t *testing.T) {
	const capacity = 5
	q := NewFairQueue(FairConfig{Capacity: capacity, MaxQueue: 1024})
	var wg sync.WaitGroup
	var mu sync.Mutex
	held := int64(0)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n, err := q.Acquire(context.Background(), "", int64(g%3+1))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				held += n
				if held > capacity {
					t.Errorf("capacity invariant violated: %d > %d", held, capacity)
				}
				mu.Unlock()
				mu.Lock()
				held -= n
				mu.Unlock()
				q.Release(n)
			}
		}(g)
	}
	wg.Wait()
	if got := q.InUse(); got != 0 {
		t.Fatalf("InUse = %d after stress, want 0", got)
	}
}
