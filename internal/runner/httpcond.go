package runner

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// HTTP cache semantics for the results API (RFC 9110 conditional
// requests + RFC 9111 response directives). A result key is a content
// address, so the entity tag is strong, the representation is
// immutable, and fronting HTTP caches (CDNs, reverse proxies) can
// absorb read traffic with plain standard-compliant caching: a warm
// cache revalidates with If-None-Match and gets a body-less 304.

// DefaultResultMaxAge is the Cache-Control max-age applied to cached
// results when the server does not configure one. Content-addressed
// entries never change, so the default is the RFC 9111 ceiling of one
// year, paired with the immutable directive.
const DefaultResultMaxAge = 365 * 24 * time.Hour

// ETagFor returns the strong entity tag for a content-addressed
// result key: the quoted key itself.
func ETagFor(key string) string { return `"` + key + `"` }

// etagsMatch implements the weak comparison of RFC 9110 §8.8.3.2,
// which If-None-Match requires: W/"x" and "x" compare equal. Both
// inputs are single entity tags (quoted, with an optional W/ prefix).
func etagsMatch(a, b string) bool {
	return strings.TrimPrefix(a, "W/") == strings.TrimPrefix(b, "W/")
}

// NoneMatch reports whether an If-None-Match header value matches
// etag: either the single member "*" (matches any current
// representation) or a comma-separated entity-tag list containing a
// weak-comparison match. An empty header never matches.
func NoneMatch(header, etag string) bool {
	header = strings.TrimSpace(header)
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	// Entity tags are quoted strings over etagc (no commas, no quotes
	// inside), so a comma split is an exact field parse.
	for _, field := range strings.Split(header, ",") {
		if etagsMatch(strings.TrimSpace(field), etag) {
			return true
		}
	}
	return false
}

// setResultCacheHeaders stamps the headers that make a cached result
// HTTP-cacheable: the strong validator, the freshness lifetime, and
// the Vary axis (the representation depends only on the accepted
// encoding; proxies must not fold differently encoded variants).
func setResultCacheHeaders(w http.ResponseWriter, key string, maxAge time.Duration) {
	if maxAge <= 0 {
		maxAge = DefaultResultMaxAge
	}
	h := w.Header()
	h.Set("ETag", ETagFor(key))
	h.Set("Cache-Control", fmt.Sprintf("public, max-age=%d, immutable", int64(maxAge.Seconds())))
	h.Set("Vary", "Accept-Encoding")
}

// ServeResult writes a cached result with full HTTP cache semantics:
// validator and freshness headers always, then either a body-less 304
// (the client's If-None-Match matched — its copy is current) or the
// JSON body with 200. v is the response document for the 200 path.
func ServeResult(w http.ResponseWriter, r *http.Request, key string, v any, maxAge time.Duration) {
	setResultCacheHeaders(w, key, maxAge)
	if NoneMatch(r.Header.Get("If-None-Match"), ETagFor(key)) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	WriteJSON(w, http.StatusOK, v)
}
