// Package gateway implements the scale-out tier: a consistent-hash
// ring over backend websimd processes and a reverse proxy that routes
// every /v1 request to the backend owning its session key. Sessions
// (and the incident-<id> sessions the incident pipeline runs on) stick
// to one backend, so per-session state — knowledge memory and the event
// log behind SSE — needs no cross-process coordination; ring changes
// migrate sessions through the shared snapshot directory instead.
package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per backend. 64 vnodes
// keeps the expected load imbalance across a handful of backends in
// the low single-digit percent while the ring stays small enough to
// rebuild on every membership change.
const DefaultReplicas = 64

// Ring is an immutable consistent-hash ring. Membership changes build
// a new ring (the gateway swaps it in atomically); lookups are
// lock-free binary searches.
type Ring struct {
	addrs  []string // sorted, deduplicated
	points []point  // sorted by hash
}

type point struct {
	hash uint64
	addr string
}

// NewRing builds a ring over the given backend addresses with
// DefaultReplicas virtual nodes each. Duplicate addresses collapse;
// order does not matter.
func NewRing(addrs []string) *Ring {
	uniq := make([]string, 0, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a != "" && !seen[a] {
			seen[a] = true
			uniq = append(uniq, a)
		}
	}
	sort.Strings(uniq)
	r := &Ring{addrs: uniq}
	r.points = make([]point, 0, len(uniq)*DefaultReplicas)
	for _, a := range uniq {
		for i := 0; i < DefaultReplicas; i++ {
			r.points = append(r.points, point{hash: hashKey(a + "#" + strconv.Itoa(i)), addr: a})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically rare with a 64-bit hash) break by
		// address so the ring is deterministic regardless of input
		// order.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// Owner returns the backend owning the key: the first vnode at or
// clockwise after the key's hash. Empty rings own nothing.
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].addr
}

// Addrs returns the ring's members, sorted.
func (r *Ring) Addrs() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.addrs...)
}

// Len returns the number of backends on the ring.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.addrs)
}

// Has reports whether addr is a ring member.
func (r *Ring) Has(addr string) bool {
	if r == nil {
		return false
	}
	i := sort.SearchStrings(r.addrs, addr)
	return i < len(r.addrs) && r.addrs[i] == addr
}

// With returns a new ring with addr added (a no-op copy if present).
func (r *Ring) With(addr string) *Ring {
	return NewRing(append(r.Addrs(), addr))
}

// Without returns a new ring with addr removed.
func (r *Ring) Without(addr string) *Ring {
	out := make([]string, 0, len(r.addrs))
	for _, a := range r.addrs {
		if a != addr {
			out = append(out, a)
		}
	}
	return NewRing(out)
}

// hashKey is 64-bit FNV-1a run through a splitmix64 finalizer. Raw
// FNV avalanches poorly on near-identical inputs ("addr#0" ...
// "addr#63"), clustering vnodes and skewing ownership; the mix
// spreads them uniformly around the ring.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ParseBackends normalizes a comma-separated backend list into
// addresses, rejecting empties and duplicates. Bare ":8081" forms
// normalize to "127.0.0.1:8081"; a scheme prefix is stripped so
// "http://host:port" and "host:port" name the same backend.
func ParseBackends(list string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	start := 0
	for i := 0; i <= len(list); i++ {
		if i < len(list) && list[i] != ',' {
			continue
		}
		raw := trimSpace(list[start:i])
		start = i + 1
		if raw == "" {
			continue
		}
		addr := NormalizeAddr(raw)
		if addr == "" {
			return nil, fmt.Errorf("invalid backend address %q", raw)
		}
		if seen[addr] {
			return nil, fmt.Errorf("duplicate backend address %q", addr)
		}
		seen[addr] = true
		out = append(out, addr)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backend addresses in %q", list)
	}
	return out, nil
}

// NormalizeAddr canonicalizes one backend address: strips an http://
// scheme and trailing slash, fills in 127.0.0.1 for a bare ":port".
// It returns "" for addresses it cannot make sense of.
func NormalizeAddr(raw string) string {
	a := trimSpace(raw)
	for _, p := range []string{"http://", "https://"} {
		if len(a) > len(p) && a[:len(p)] == p {
			a = a[len(p):]
			break
		}
	}
	for len(a) > 0 && a[len(a)-1] == '/' {
		a = a[:len(a)-1]
	}
	if a == "" || a[0] == ':' && len(a) > 1 {
		if a == "" {
			return ""
		}
		a = "127.0.0.1" + a
	}
	// Require host:port — a lone hostname is almost certainly a typo.
	colon := -1
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] == ':' {
			colon = i
			break
		}
	}
	if colon <= 0 || colon == len(a)-1 {
		return ""
	}
	if _, err := strconv.Atoi(a[colon+1:]); err != nil {
		return ""
	}
	return a
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}
