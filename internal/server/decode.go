package server

import (
	"encoding/json"
	"fmt"
	"io"

	"mpcjoin/internal/planner"
)

// Request decoding and validation, kept as pure functions over bytes so
// they can be fuzzed directly (FuzzDecodeQueryRequestV2): whatever bytes
// arrive, the decoder must return a request or an error — never panic —
// and every error maps to a 4xx at the handler.

// Decoded request size limits: generous for real use, small enough that a
// hostile body cannot balloon server memory before validation rejects it.
const (
	maxBodyBytes    = 64 << 20 // HTTP body cap, enforced by the handler
	maxRelations    = 64       // relations per query
	maxServers      = 1 << 14  // simulated cluster size
	maxGeneratedN   = 1 << 24  // rows a generator may produce
	maxDeadlineMS   = 1 << 31  // ~24 days; larger is surely a client bug
	maxQueryWorkers = 1 << 10  // OS workers one query may request
)

// DatasetRequest is the body of POST /v1/datasets. Exactly one of Rows or
// Generate must be set.
type DatasetRequest struct {
	// Name registers the dataset for reference from queries.
	Name string `json:"name"`
	// Arity is the tuple width (1 or 2 attributes).
	Arity int `json:"arity"`
	// Rows lists tuples as [annotation, v1, ..., vArity].
	Rows [][]int64 `json:"rows,omitempty"`
	// Generate synthesizes rows server-side instead of uploading them.
	Generate *GenerateSpec `json:"generate,omitempty"`
}

// GenerateSpec asks the server to synthesize a uniform-random dataset.
type GenerateSpec struct {
	N    int    `json:"n"`    // number of tuples
	Dom  int    `json:"dom"`  // values drawn uniformly from [0, dom)
	Seed uint64 `json:"seed"` // deterministic generation
}

// QueryRelation binds one relation symbol of the query to a registered
// dataset.
type QueryRelation struct {
	// Name is the relation symbol in the query.
	Name string `json:"name"`
	// Attrs names the relation's attributes (1 or 2); shared names are
	// join attributes.
	Attrs []string `json:"attrs"`
	// Dataset is the registered dataset backing this relation; defaults
	// to Name.
	Dataset string `json:"dataset,omitempty"`
}

var validSemirings = map[string]bool{"": true, "ints": true, "minplus": true, "maxplus": true, "maxmin": true, "bools": true}

// DecodeDatasetRequest parses and validates a dataset registration body.
func DecodeDatasetRequest(r io.Reader) (*DatasetRequest, error) {
	var req DatasetRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if req.Name == "" {
		return nil, fmt.Errorf("name is required")
	}
	if req.Arity < 1 || req.Arity > 2 {
		return nil, fmt.Errorf("arity must be 1 or 2, got %d", req.Arity)
	}
	if req.Rows != nil && req.Generate != nil {
		return nil, fmt.Errorf("rows and generate are mutually exclusive")
	}
	if req.Rows == nil && req.Generate == nil {
		return nil, fmt.Errorf("one of rows or generate is required")
	}
	for i, row := range req.Rows {
		if len(row) != req.Arity+1 {
			return nil, fmt.Errorf("row %d: want [annot, %d values], got %d elements", i, req.Arity, len(row))
		}
	}
	if g := req.Generate; g != nil {
		if g.N < 0 || g.N > maxGeneratedN {
			return nil, fmt.Errorf("generate.n must be in [0, %d], got %d", maxGeneratedN, g.N)
		}
		if g.Dom < 1 {
			return nil, fmt.Errorf("generate.dom must be positive, got %d", g.Dom)
		}
	}
	return &req, nil
}

// validateQueryRequest checks the decoded request shape.
func validateQueryRequest(req *QueryRequestV2) error {
	o := req.Options
	if len(req.Relations) == 0 {
		return fmt.Errorf("relations is required")
	}
	if len(req.Relations) > maxRelations {
		return fmt.Errorf("at most %d relations per query, got %d", maxRelations, len(req.Relations))
	}
	for i, rel := range req.Relations {
		if rel.Name == "" {
			return fmt.Errorf("relations[%d]: name is required", i)
		}
		if len(rel.Attrs) < 1 || len(rel.Attrs) > 2 {
			return fmt.Errorf("relations[%d]: want 1 or 2 attrs, got %d", i, len(rel.Attrs))
		}
		for j, a := range rel.Attrs {
			if a == "" {
				return fmt.Errorf("relations[%d].attrs[%d]: empty attribute name", i, j)
			}
		}
	}
	for i, a := range req.GroupBy {
		if a == "" {
			return fmt.Errorf("group_by[%d]: empty attribute name", i)
		}
	}
	if o.Servers < 0 || o.Servers > maxServers {
		return fmt.Errorf("servers must be in [0, %d], got %d", maxServers, o.Servers)
	}
	if _, err := planner.ParseEngine(req.Strategy); err != nil {
		return fmt.Errorf("strategy: %w", err)
	}
	if !validSemirings[req.Semiring] {
		return fmt.Errorf("unknown semiring %q (want ints, minplus, maxplus, maxmin or bools)", req.Semiring)
	}
	if o.Workers < -1 || o.Workers > maxQueryWorkers {
		return fmt.Errorf("workers must be in [-1, %d], got %d", maxQueryWorkers, o.Workers)
	}
	if o.DeadlineMS < 0 || o.DeadlineMS > maxDeadlineMS {
		return fmt.Errorf("deadline_ms must be in [0, %d], got %d", maxDeadlineMS, o.DeadlineMS)
	}
	if o.Faults != nil {
		if err := o.Faults.validate(); err != nil {
			return err
		}
	}
	if !validCacheModes[o.Cache] {
		return fmt.Errorf("unknown cache mode %q (want default, bypass or off)", o.Cache)
	}
	if g := req.Graph; g != nil {
		if err := g.validate(); err != nil {
			return err
		}
		// A graph run is one driver over one edge relation; the
		// join-aggregate knobs do not compose with it.
		if len(req.Relations) != 1 {
			return fmt.Errorf("graph queries bind exactly one edge relation, got %d", len(req.Relations))
		}
		if len(req.Relations[0].Attrs) != 2 {
			return fmt.Errorf("graph queries need a binary edge relation, got %d attrs", len(req.Relations[0].Attrs))
		}
		if len(req.GroupBy) != 0 {
			return fmt.Errorf("graph queries do not take group_by")
		}
		if req.Strategy != "" {
			return fmt.Errorf("graph queries do not take a strategy (the %s driver is the engine)", g.Kind)
		}
		if req.Semiring != "" {
			return fmt.Errorf("graph queries do not take a semiring (the %s driver fixes it)", g.Kind)
		}
		if o.Explain {
			return fmt.Errorf("explain does not apply to graph queries (the %s driver is the plan)", g.Kind)
		}
	}
	return nil
}
