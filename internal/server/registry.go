package server

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"

	"mpcjoin/internal/relation"
)

// Dataset is a registered bag of annotated tuples. The rows are immutable
// after registration: queries alias them into per-query relations (the
// engine's initial placement copies rows into shards, never mutating the
// source when the input is not owned), so N rows are stored once no matter
// how many queries read them.
type Dataset struct {
	Arity int
	Rows  []relation.Row[int64]
	// Version is the registry's global version at the moment this dataset
	// (re)registered — a replacement under the same name gets a higher
	// version, which is what keys cached results to the exact data they
	// were computed from.
	Version uint64
}

// RegistryView is an immutable snapshot of the registry: the map is never
// mutated after publication, so any number of queries can read it without
// synchronization while registrations build and publish successor views.
// A query resolves all its relations against one view, pinning the
// dataset versions it runs on for its whole execution.
type RegistryView struct {
	version uint64
	m       map[string]*Dataset
}

// Version is the global registry version this view snapshots: it
// increments on every registration, so equal versions imply identical
// dataset contents.
func (v *RegistryView) Version() uint64 { return v.version }

// Get returns the dataset registered under name in this snapshot.
func (v *RegistryView) Get(name string) (*Dataset, bool) {
	ds, ok := v.m[name]
	return ds, ok
}

// Len returns the number of datasets in this snapshot.
func (v *RegistryView) Len() int { return len(v.m) }

// Names returns the snapshot's dataset names, sorted.
func (v *RegistryView) Names() []string {
	out := make([]string, 0, len(v.m))
	for name := range v.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Registry is the server's dataset store: register once, query many
// times. Reads are lock-free snapshots (View); registrations copy the
// current map, insert, and atomically publish the successor — so a
// registration never blocks an in-flight query, and a query never sees a
// half-applied registration.
type Registry struct {
	mu   sync.Mutex // serializes writers only
	view atomic.Pointer[RegistryView]
}

// NewRegistry returns an empty registry at version 0.
func NewRegistry() *Registry {
	r := &Registry{}
	r.view.Store(&RegistryView{m: map[string]*Dataset{}})
	return r
}

// View returns the current immutable snapshot.
func (r *Registry) View() *RegistryView { return r.view.Load() }

// Put registers (or replaces) a dataset, publishing a new snapshot, and
// returns the version it published under the registry's lock — the Version
// of the Dataset it stored, which a later Get may no longer find once
// another writer has replaced the name. The registry takes ownership of
// rows; the caller must not modify the slice afterwards.
func (r *Registry) Put(name string, arity int, rows []relation.Row[int64]) (uint64, error) {
	if name == "" {
		return 0, fmt.Errorf("dataset name must be non-empty")
	}
	if arity < 1 || arity > 2 {
		return 0, fmt.Errorf("dataset %q: arity must be 1 or 2, got %d", name, arity)
	}
	for i, row := range rows {
		if len(row.Vals) != arity {
			return 0, fmt.Errorf("dataset %q: row %d has %d values, want %d", name, i, len(row.Vals), arity)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.view.Load()
	next := &RegistryView{version: old.version + 1, m: make(map[string]*Dataset, len(old.m)+1)}
	for k, v := range old.m {
		next.m[k] = v
	}
	next.m[name] = &Dataset{Arity: arity, Rows: rows, Version: next.version}
	r.view.Store(next)
	return next.version, nil
}

// Get returns the dataset registered under name in the current snapshot.
func (r *Registry) Get(name string) (*Dataset, bool) { return r.View().Get(name) }

// Len returns the number of registered datasets.
func (r *Registry) Len() int { return r.View().Len() }

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string { return r.View().Names() }

// Version returns the current global registry version.
func (r *Registry) Version() uint64 { return r.View().Version() }

// GenerateRows produces n uniform-random tuples of the given arity with
// values in [0, dom) and annotation 1, deterministically from seed — the
// registration-time generator for smoke tests and demos, so clients need
// not upload megabytes of synthetic rows.
func GenerateRows(arity, n, dom int, seed uint64) []relation.Row[int64] {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	buf := make([]relation.Value, n*arity)
	rows := make([]relation.Row[int64], n)
	for i := range rows {
		vals := buf[i*arity : (i+1)*arity : (i+1)*arity]
		for j := range vals {
			vals[j] = relation.Value(rng.IntN(dom))
		}
		rows[i] = relation.Row[int64]{Vals: vals, W: 1}
	}
	return rows
}
