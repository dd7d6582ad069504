package llm

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// evidenceCacheCap bounds the per-Sim evidence LRU. Entries key on the
// full knowledge text, so memory is at most cap × one prompt's
// KNOWLEDGE section (a few KB each).
const evidenceCacheCap = 128

// Evidence-cache counters, process-wide across every Sim so GET
// /v1/stats can report one number per process.
var (
	evCacheHits   atomic.Int64
	evCacheMisses atomic.Int64
)

// CacheStats is a hit/miss snapshot of the evidence cache, JSON-shaped
// for GET /v1/stats.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// EvidenceCacheStats returns the process-wide evidence-cache counters.
func EvidenceCacheStats() CacheStats {
	return CacheStats{Hits: evCacheHits.Load(), Misses: evCacheMisses.Load()}
}

// evKey identifies one memoized evidence build: the exact knowledge
// text and the conflict policy it was built under. Using the text
// itself (rather than a digest) makes a hit provably byte-equivalent,
// and lookups stay cheap because the retrieval cache hands back the
// same string instance on its own hits, letting map equality shortcut
// on the pointer.
type evKey struct {
	knowledge   string
	acceptFirst bool
}

// evidenceCache is a mutex-guarded bounded LRU from knowledge+mode to
// the built *Evidence. BuildEvidenceMode is pure and Evidence is
// read-only after construction (every consumer copies before sorting or
// appending), so one cached value can serve concurrent completions —
// the clones quizrunner fans out share one Sim and therefore one cache.
type evidenceCache struct {
	mu sync.Mutex
	ll *list.List
	m  map[evKey]*list.Element
}

type evEntry struct {
	key evKey
	ev  *Evidence
}

// evidence returns the structured view of the knowledge text, memoized
// unless the Sim opts out of caching.
func (m *Sim) evidence(knowledge string) *Evidence {
	if m.NoCache {
		return BuildEvidenceMode(knowledge, m.AcceptFirstOnConflict)
	}
	key := evKey{knowledge: knowledge, acceptFirst: m.AcceptFirstOnConflict}
	c := &m.evCache
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		ev := el.Value.(*evEntry).ev
		c.mu.Unlock()
		evCacheHits.Add(1)
		return ev
	}
	c.mu.Unlock()
	evCacheMisses.Add(1)
	ev := BuildEvidenceMode(knowledge, m.AcceptFirstOnConflict)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[evKey]*list.Element, evidenceCacheCap)
		c.ll = list.New()
	}
	if el, ok := c.m[key]; ok {
		// A concurrent completion built the same knowledge first; keep
		// its entry (the builds are identical — the function is pure).
		c.ll.MoveToFront(el)
		return el.Value.(*evEntry).ev
	}
	c.m[key] = c.ll.PushFront(&evEntry{key: key, ev: ev})
	for len(c.m) > evidenceCacheCap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*evEntry).key)
	}
	return ev
}
