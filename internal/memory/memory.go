// Package memory implements the agent's knowledge memory: the long-term
// store the paper persists as knowledge.json. Each item is a piece of
// natural-language knowledge with its provenance (the URL it came from
// and the query that surfaced it). Retrieval scores items by a weighted
// blend of relevance, recency and importance — the retrieval function of
// the generative-agents architecture the paper builds on — and the
// weights are configurable so the A1 ablation can compare relevance-only
// retrieval against the full blend.
//
// The store is tiered for million-session residency: shared immutable
// base Segments (trained knowledge, sealed once, attached by reference)
// under a small mutable delta that holds only this store's self-learned
// items. Clone copies the delta and retains the segments, so forking a
// trained session costs the delta — not the training corpus and not its
// index. Retrieval runs an index.Overlay across all layers, which is
// bit-identical to a single combined index (see that type's contract),
// so the tiering is invisible to ranking.
package memory

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/facts"
	"repro/internal/index"
	"repro/internal/persist"
)

// Item is one memorized piece of knowledge.
type Item struct {
	ID         string  `json:"id"`
	Text       string  `json:"text"`
	Source     string  `json:"source"` // URL the knowledge came from
	Topic      string  `json:"topic"`  // query that surfaced it
	Seq        int64   `json:"seq"`    // logical insertion time
	Importance float64 `json:"importance"`
}

// Weights configures retrieval scoring. Zero-value weights are replaced
// by DefaultWeights.
type Weights struct {
	Relevance  float64 `json:"relevance"`
	Recency    float64 `json:"recency"`
	Importance float64 `json:"importance"`
}

// DefaultWeights is the standard blend.
var DefaultWeights = Weights{Relevance: 0.7, Recency: 0.1, Importance: 0.2}

// RelevanceOnly scores purely by query relevance (ablation A1 baseline).
var RelevanceOnly = Weights{Relevance: 1}

// Store is the knowledge memory. It is safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	// segs are the attached base segments, oldest first. Segments are
	// frozen — every mutating method touches only the delta below — and
	// shared across stores by reference.
	segs []*Segment
	// The delta: items this store learned itself, plus their dedup set
	// and mutable retrieval index.
	items  []Item
	byHash map[string]bool
	idx    *index.Index

	seq     int64
	weights Weights

	// version is a monotonic epoch bumped on every content mutation
	// (while mu is held for writing); it keys the knowledge-text cache,
	// so a stale rendering can never be served after the store changes.
	// Content-preserving restructures (SealDelta, segment interning)
	// deliberately do not bump it: the rendering they would invalidate
	// is byte-identical.
	version atomic.Int64

	// ktMu guards the (query, k) → rendered-KnowledgeText cache. Entries
	// carry the version they were computed at and hit only while the
	// store is unchanged — the dominant pattern of the ask path, where
	// confidence re-checks and repeated questions retrieve over a memory
	// that mutates rarely.
	ktMu    sync.Mutex
	ktCache map[ktKey]ktEntry
	noCache bool
}

type ktKey struct {
	query string
	k     int
}

type ktEntry struct {
	version int64
	text    string
}

// ktCacheCap bounds the knowledge-text cache; at the cap the map clears
// wholesale (entries are version-checked, so correctness never depends
// on what stays).
const ktCacheCap = 256

// Knowledge-text cache counters, process-wide across all stores for
// GET /v1/stats.
var (
	ktCacheHits   atomic.Int64
	ktCacheMisses atomic.Int64
)

// CacheStats is a hit/miss snapshot of the knowledge-text cache,
// JSON-shaped for GET /v1/stats.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// KnowledgeCacheStats returns the process-wide knowledge-text cache
// counters.
func KnowledgeCacheStats() CacheStats {
	return CacheStats{Hits: ktCacheHits.Load(), Misses: ktCacheMisses.Load()}
}

// NewStore returns an empty store with the given weights.
func NewStore(w Weights) *Store {
	if w == (Weights{}) {
		w = DefaultWeights
	}
	return &Store{byHash: map[string]bool{}, idx: index.New(), weights: w}
}

// DisableCache turns off the knowledge-text cache for this store. Kept
// for the determinism suite, which proves cached and uncached renderings
// byte-identical.
func (s *Store) DisableCache() {
	s.ktMu.Lock()
	s.noCache = true
	s.ktCache = nil
	s.ktMu.Unlock()
}

// Clone returns an independent snapshot of the store: the same knowledge,
// dedup state, sequence counter and weights. Base segments are shared by
// reference (they are immutable, so sharing is free and safe); only the
// delta — items, dedup set, index — is deep-copied. Snapshots are how a
// trained knowledge state is shared across parallel investigations:
// concurrent agents that *write* must never share one Store (their
// insertion sequences would interleave nondeterministically), so each
// gets a clone and the original stays pristine. For a freshly trained
// store the delta is empty and a clone costs a few pointers, which is
// what makes million-session residency affordable.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	segs := slices.Clone(s.segs)
	for _, seg := range segs {
		seg.Retain()
	}
	c := &Store{
		segs:    segs,
		items:   slices.Clone(s.items),
		byHash:  maps.Clone(s.byHash),
		idx:     s.idx.Clone(),
		seq:     s.seq,
		weights: s.weights,
	}
	// The clone starts with an empty knowledge-text cache (renders are
	// pure, so rebuilding them costs only speed) but inherits the
	// cache-disabled flag.
	s.ktMu.Lock()
	c.noCache = s.noCache
	s.ktMu.Unlock()
	return c
}

// Len returns the number of items across all segments and the delta.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lenLocked()
}

func (s *Store) lenLocked() int {
	n := len(s.items)
	for _, seg := range s.segs {
		n += len(seg.items)
	}
	return n
}

// contentHash canonicalizes and hashes item text for deduplication.
func contentHash(text string) string {
	sum := sha256.Sum256([]byte(strings.Join(strings.Fields(text), " ")))
	return hex.EncodeToString(sum[:8])
}

// sanitize strips prompt-framing sequences so memorized web content can
// never break the prompt protocol (the paper's §5 notes memory files can
// be targets of adversarial data).
func sanitize(text string) string {
	// Removing one "### " can join its neighbours into another
	// ("##### # "), so repeat until none is left.
	for strings.Contains(text, "### ") {
		text = strings.ReplaceAll(text, "### ", "")
	}
	return text
}

// hasContentLocked reports whether the content hash exists in any
// segment or the delta. Caller holds mu.
func (s *Store) hasContentLocked(h string) bool {
	for _, seg := range s.segs {
		if seg.byHash[h] {
			return true
		}
	}
	return s.byHash[h]
}

// Add memorizes text with its provenance. Duplicate content (after
// whitespace normalization) is ignored — across the base segments and
// the delta alike; the second return reports whether the item was new.
// New items always land in the delta: segments are immutable.
// Importance is the density of extractable structured facts in the text.
func (s *Store) Add(text, source, topic string) (Item, bool) {
	text = sanitize(strings.TrimSpace(text))
	if text == "" {
		return Item{}, false
	}
	h := contentHash(text)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasContentLocked(h) {
		return Item{}, false
	}
	s.byHash[h] = true
	s.seq++
	nFacts := len(facts.Extract(text))
	imp := float64(nFacts) / 4
	if imp > 1 {
		imp = 1
	}
	it := Item{
		ID:         fmt.Sprintf("k%04d-%s", s.seq, h),
		Text:       text,
		Source:     source,
		Topic:      topic,
		Seq:        s.seq,
		Importance: imp,
	}
	s.items = append(s.items, it)
	s.idx.Add(index.Doc{ID: it.ID, Title: topic, Body: text})
	s.version.Add(1)
	return it, true
}

// overlayLocked assembles the layered retrieval view. Caller holds mu.
func (s *Store) overlayLocked() index.Overlay {
	if len(s.segs) == 0 {
		return index.Overlay{Delta: s.idx}
	}
	bases := make([]*index.Frozen, len(s.segs))
	for i, seg := range s.segs {
		bases[i] = seg.idx
	}
	return index.Overlay{Bases: bases, Delta: s.idx}
}

// Retrieve returns the top-k items for the query under the store's
// weight blend. Relevance comes from BM25 over item text (normalized to
// the top score) via an overlay across all segments and the delta —
// bit-identical to a single index over the same items; recency decays
// exponentially with age in insertions; importance is the stored fact
// density.
func (s *Store) Retrieve(query string, k int) []Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := s.lenLocked()
	if k <= 0 || total == 0 {
		return nil
	}
	hits := s.overlayLocked().SearchScores(query, total)
	var maxScore float64
	for _, h := range hits {
		if h.Score > maxScore {
			maxScore = h.Score
		}
	}
	// When nothing matched the query, every relevance contribution is
	// zero — skip building the map entirely (lookups on a nil map read
	// as 0, the exact value the old code blended in).
	var rel map[string]float64
	if maxScore > 0 {
		rel = make(map[string]float64, len(hits))
		for _, h := range hits {
			rel[h.ID] = h.Score / maxScore
		}
	}
	outp := scoredPool.Get().(*[]scoredItem)
	out := (*outp)[:0]
	score := func(it Item) {
		age := float64(s.seq - it.Seq)
		recency := 1.0
		if age > 0 {
			recency = 1 / (1 + age/10)
		}
		sc := s.weights.Relevance*rel[it.ID] +
			s.weights.Recency*recency +
			s.weights.Importance*it.Importance
		out = append(out, scoredItem{it, sc})
	}
	for _, seg := range s.segs {
		for _, it := range seg.items {
			score(it)
		}
	}
	for _, it := range s.items {
		score(it)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].item.Seq < out[j].item.Seq
	})
	if len(out) > k {
		out = out[:k]
	}
	items := make([]Item, len(out))
	for i, sc := range out {
		items[i] = sc.item
	}
	*outp = out[:0]
	scoredPool.Put(outp)
	return items
}

type scoredItem struct {
	item  Item
	score float64
}

// scoredPool recycles Retrieve's scratch slice; every ask scores the
// whole store, so the slice is as large as the memory and worth reusing.
var scoredPool = sync.Pool{
	New: func() any {
		s := make([]scoredItem, 0, 64)
		return &s
	},
}

// KnowledgeText renders the top-k items for a query as the KNOWLEDGE
// section of a prompt. With an empty query it concatenates the k most
// recent items instead. Renders are cached per (query, k) at the
// store's current version — which covers the attached segment set and
// the delta alike, since every content mutation bumps it: every ask,
// confidence re-check and plan over an unchanged memory reuses the
// rendered string (and, because the same string instance flows into the
// model, the evidence cache's key comparison short-circuits on it too).
func (s *Store) KnowledgeText(query string, k int) string {
	s.ktMu.Lock()
	disabled := s.noCache
	s.ktMu.Unlock()
	if disabled {
		return s.knowledgeText(query, k)
	}
	key := ktKey{query: query, k: k}
	// The version must be read before rendering: a render that races a
	// mutation may see the newer state, but it gets tagged with the
	// older version and the tag check below retires it.
	v := s.version.Load()
	s.ktMu.Lock()
	if e, ok := s.ktCache[key]; ok && e.version == v {
		s.ktMu.Unlock()
		ktCacheHits.Add(1)
		return e.text
	}
	s.ktMu.Unlock()
	ktCacheMisses.Add(1)
	text := s.knowledgeText(query, k)
	s.ktMu.Lock()
	if s.ktCache == nil {
		s.ktCache = make(map[ktKey]ktEntry, 16)
	}
	if len(s.ktCache) >= ktCacheCap {
		clear(s.ktCache)
	}
	s.ktCache[key] = ktEntry{version: v, text: text}
	s.ktMu.Unlock()
	return text
}

// knowledgeText is the uncached rendering.
func (s *Store) knowledgeText(query string, k int) string {
	var items []Item
	if strings.TrimSpace(query) == "" {
		items = s.Recent(k)
	} else {
		items = s.Retrieve(query, k)
	}
	var b strings.Builder
	for _, it := range items {
		b.WriteString(it.Text)
		if !strings.HasSuffix(it.Text, ".") {
			b.WriteString(".")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Recent returns the k most recently added items, newest first. The
// delta is newest, then segments from the most recently attached back.
func (s *Store) Recent(k int) []Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n := s.lenLocked(); k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	out := make([]Item, 0, k)
	tail := func(items []Item) {
		for i := len(items) - 1; i >= 0 && len(out) < k; i-- {
			out = append(out, items[i])
		}
	}
	tail(s.items)
	for i := len(s.segs) - 1; i >= 0 && len(out) < k; i-- {
		tail(s.segs[i].items)
	}
	return out
}

// All returns a copy of every item in insertion order: segments in
// attach order, then the delta.
func (s *Store) All() []Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Item, 0, s.lenLocked())
	for _, seg := range s.segs {
		out = append(out, seg.items...)
	}
	return append(out, s.items...)
}

// Sources returns the distinct source URLs in the store, sorted. Used to
// verify the agent never saw a restricted document.
func (s *Store) Sources() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{}
	for _, seg := range s.segs {
		for _, it := range seg.items {
			seen[it.Source] = true
		}
	}
	for _, it := range s.items {
		seen[it.Source] = true
	}
	out := make([]string, 0, len(seen))
	for src := range seen {
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}

// file is the JSON schema of knowledge.json.
type file struct {
	Items []Item `json:"knowledge"`
}

// Save writes the store to path as knowledge.json (segments and delta
// flattened — the file format predates the tiering and stays portable).
// The write goes through persist.WriteFile (temp file + rename), so a
// crash mid-write can never leave a truncated knowledge.json as the only
// copy.
func (s *Store) Save(path string) error {
	data, err := json.MarshalIndent(file{Items: s.All()}, "", "  ")
	if err != nil {
		return fmt.Errorf("memory: marshal: %w", err)
	}
	if err := persist.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("memory: write %s: %w", path, err)
	}
	return nil
}

// Load replaces the store contents from a knowledge.json file.
func (s *Store) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("memory: read %s: %w", path, err)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("memory: parse %s: %w", path, err)
	}
	s.ReplaceItems(f.Items)
	return nil
}

// ReplaceItems replaces the store contents — attached segments included —
// with the given items, preserving their IDs, sequence numbers and
// importance: the restore half of knowledge.json. Restored text passes
// through the same sanitizer as Add, so a crafted memory file cannot
// reintroduce the prompt framing the sanitizer exists to strip, and
// duplicate content is dropped exactly as Add drops it.
func (s *Store) ReplaceItems(items []Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version.Add(1)
	s.releaseSegsLocked()
	s.resetDeltaLocked()
	s.addRestoredLocked(items)
}

// RestoreParts replaces the store contents with the given base segments
// plus delta items — the restore half of a session snapshot. Segments
// are attached by reference (and retained); delta items pass through
// the same sanitize-and-dedup path as ReplaceItems, including dedup
// against the attached segments.
func (s *Store) RestoreParts(segs []*Segment, delta []Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version.Add(1)
	s.releaseSegsLocked()
	s.resetDeltaLocked()
	for _, seg := range segs {
		if seg == nil {
			continue
		}
		seg.Retain()
		s.segs = append(s.segs, seg)
		if seg.maxSeq > s.seq {
			s.seq = seg.maxSeq
		}
	}
	s.addRestoredLocked(delta)
}

// SealDelta freezes the current delta into a new base segment appended
// to the segment list, leaving an empty delta for future writes. The
// store's contents are unchanged item-for-item — retrieval over the
// sealed segment is bit-identical to retrieval over the old delta — so
// the version is not bumped. Returns the new segment (already attached
// and retained by this store), or nil when the delta is empty.
//
// Sealing is how trained knowledge becomes shareable: agent.Train seals
// after the role goals complete, the session layer interns the segment
// in evalcache, and every Clone from then on shares it by reference.
func (s *Store) SealDelta() *Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) == 0 {
		return nil
	}
	seg := newSegment("", s.items, s.byHash, s.idx.Freeze(), s.seq)
	seg.Retain()
	s.segs = append(s.segs, seg)
	s.items = nil
	s.byHash = map[string]bool{}
	s.idx = index.New()
	return seg
}

// Segments returns the attached base segments in attach order. The
// returned slice is a copy; the segments themselves are shared and
// immutable.
func (s *Store) Segments() []*Segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.segs)
}

// Parts returns the attached segments and a copy of the delta items —
// the serialization halves of a session snapshot.
func (s *Store) Parts() ([]*Segment, []Item) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.segs), append([]Item(nil), s.items...)
}

// InternSegments replaces each attached segment with intern(segment),
// retaining the canonical copy and releasing the duplicate whenever the
// two differ. Interning is content-addressed (the intern function is
// expected to key on Segment.Fingerprint), so the store's contents — and
// therefore every rendering — are unchanged and the version is not
// bumped.
func (s *Store) InternSegments(intern func(*Segment) *Segment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, seg := range s.segs {
		c := intern(seg)
		if c == nil || c == seg {
			continue
		}
		c.Retain()
		seg.Release()
		s.segs[i] = c
	}
}

// ReleaseSegments drops this store's references on its attached
// segments without detaching them — the end-of-life half of refcounting,
// called when a session closes. The store remains readable (segments are
// immortal once interned); only the sharing statistics change.
func (s *Store) ReleaseSegments() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, seg := range s.segs {
		seg.Release()
	}
}

// releaseSegsLocked detaches and releases every segment. Caller holds mu
// for writing.
func (s *Store) releaseSegsLocked() {
	for _, seg := range s.segs {
		seg.Release()
	}
	s.segs = nil
}

// resetDeltaLocked empties the delta. Caller holds mu for writing.
func (s *Store) resetDeltaLocked() {
	s.items = nil
	s.byHash = map[string]bool{}
	s.idx = index.New()
	s.seq = 0
}

// addRestoredLocked appends restored items to the delta, sanitizing and
// deduplicating each one (against segments and delta alike) while
// preserving IDs, sequence numbers and importance. Caller holds mu for
// writing.
func (s *Store) addRestoredLocked(items []Item) {
	for _, it := range items {
		it.Text = sanitize(strings.TrimSpace(it.Text))
		if it.Text == "" {
			continue
		}
		h := contentHash(it.Text)
		if s.hasContentLocked(h) {
			continue
		}
		s.byHash[h] = true
		if it.Seq > s.seq {
			s.seq = it.Seq
		}
		s.items = append(s.items, it)
		s.idx.Add(index.Doc{ID: it.ID, Title: it.Topic, Body: it.Text})
	}
}
