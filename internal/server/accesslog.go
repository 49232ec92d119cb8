package server

import (
	"fmt"
	"net/http"
)

// TenantHeader names the request header carrying the tenant identity.
// Absent means DefaultTenant: single-tenant deployments never need to set
// it, and a proxy that authenticates clients injects it on their behalf.
const TenantHeader = "X-MPC-Tenant"

// DefaultTenant is the tenant of requests without a TenantHeader.
const DefaultTenant = "default"

// maxTenantLen bounds the tenant identifier; tenants become map keys and
// metric labels, so a hostile header must not be an unbounded-cardinality
// amplification knob.
const maxTenantLen = 64

// tenantFromRequest resolves and validates the request's tenant. The
// identifier charset is deliberately narrow — it is embedded verbatim in
// metric labels and access-log lines.
func tenantFromRequest(r *http.Request) (string, error) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		return DefaultTenant, nil
	}
	if len(tenant) > maxTenantLen {
		return "", fmt.Errorf("%s: tenant must be at most %d characters, got %d", TenantHeader, maxTenantLen, len(tenant))
	}
	for _, c := range []byte(tenant) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return "", fmt.Errorf("%s: tenant may contain only letters, digits, '.', '_' and '-'", TenantHeader)
		}
	}
	return tenant, nil
}

// AccessEntry is one structured per-query access-log record: everything
// an operator needs to answer "what happened to that query" — who sent
// it, what data version it saw, how it was served (engine, cache,
// coalescing), how long it waited and ran, and how it ended. mpcd's
// -log-format json emits one JSON line per query from these.
type AccessEntry struct {
	// Path is the endpoint ("/v2/query", "/v2/plan").
	Path string `json:"path"`
	// Tenant is the admitted tenant (DefaultTenant when no header).
	Tenant string `json:"tenant"`
	// Status is the HTTP status written; Cause is the machine-readable
	// error cause for non-200 outcomes ("" on success).
	Status int    `json:"status"`
	Cause  string `json:"cause,omitempty"`
	// Engine is the algorithm that ran (or would have run) the query.
	Engine string `json:"engine,omitempty"`
	// DatasetVersion is the registry version the query's snapshot pinned.
	DatasetVersion uint64 `json:"dataset_version,omitempty"`
	// CacheHit is true when the result came from the result cache without
	// executing; Coalesced is true when it came from joining another
	// request's in-flight execution.
	CacheHit  bool `json:"cache_hit"`
	Coalesced bool `json:"coalesced,omitempty"`
	// QueueNS is time spent waiting in the admission queue; WallNS is the
	// request's total wall time, both in nanoseconds.
	QueueNS int64 `json:"queue_ns"`
	WallNS  int64 `json:"wall_ns"`
}
