package gateway

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s-%06d", i)
	}
	return out
}

// TestRingDeterminism pins the routing contract: the owner of a key
// depends only on ring membership — not build order, not process — so
// every gateway (and every restart) routes identically.
func TestRingDeterminism(t *testing.T) {
	addrs := []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003", "127.0.0.1:9004"}
	shuffled := []string{"127.0.0.1:9003", "127.0.0.1:9001", "127.0.0.1:9004", "127.0.0.1:9002"}
	a := NewRing(addrs)
	b := NewRing(shuffled)
	c := NewRing(append(addrs, addrs...)) // duplicates collapse
	for _, k := range keys(2000) {
		if a.Owner(k) != b.Owner(k) || a.Owner(k) != c.Owner(k) {
			t.Fatalf("owner of %s differs across equivalent rings: %s / %s / %s",
				k, a.Owner(k), b.Owner(k), c.Owner(k))
		}
	}
	// Repeated lookups are stable.
	if a.Owner("sess") != a.Owner("sess") {
		t.Fatal("Owner not stable")
	}
	// Single-backend rings own everything; empty rings own nothing.
	solo := NewRing([]string{"127.0.0.1:9001"})
	for _, k := range keys(100) {
		if solo.Owner(k) != "127.0.0.1:9001" {
			t.Fatalf("solo ring misrouted %s", k)
		}
	}
	if NewRing(nil).Owner("x") != "" {
		t.Fatal("empty ring claimed an owner")
	}
}

// TestRingBalance guards against gross vnode imbalance: with 4
// backends and default replicas, no backend owns more than twice its
// fair share of a large key sample.
func TestRingBalance(t *testing.T) {
	addrs := []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003", "127.0.0.1:9004"}
	r := NewRing(addrs)
	count := map[string]int{}
	sample := keys(8000)
	for _, k := range sample {
		count[r.Owner(k)]++
	}
	fair := len(sample) / len(addrs)
	for _, a := range addrs {
		if count[a] == 0 {
			t.Errorf("backend %s owns no keys", a)
		}
		if count[a] > 2*fair {
			t.Errorf("backend %s owns %d keys, > 2x fair share %d", a, count[a], fair)
		}
	}
}

// TestRingMinimalMovement is the consistent-hashing property itself:
// adding or removing one of N backends moves well under 2/N of keys,
// and every moved key moves to/from the changed backend only.
func TestRingMinimalMovement(t *testing.T) {
	addrs := []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003", "127.0.0.1:9004"}
	sample := keys(8000)

	before := NewRing(addrs)
	joined := before.With("127.0.0.1:9005")
	moved := 0
	for _, k := range sample {
		was, is := before.Owner(k), joined.Owner(k)
		if was != is {
			moved++
			if is != "127.0.0.1:9005" {
				t.Fatalf("join moved %s from %s to %s, not to the joiner", k, was, is)
			}
		}
	}
	if limit := 2 * len(sample) / len(joined.Addrs()); moved >= limit {
		t.Errorf("join moved %d/%d keys, want < %d", moved, len(sample), limit)
	}
	if moved == 0 {
		t.Error("join moved no keys — joiner owns nothing")
	}

	left := before.Without("127.0.0.1:9002")
	moved = 0
	for _, k := range sample {
		was, is := before.Owner(k), left.Owner(k)
		if was != is {
			moved++
			if was != "127.0.0.1:9002" {
				t.Fatalf("leave moved %s from %s to %s although %s left", k, was, is, "127.0.0.1:9002")
			}
		}
	}
	if limit := 2 * len(sample) / len(addrs); moved >= limit {
		t.Errorf("leave moved %d/%d keys, want < %d", moved, len(sample), limit)
	}
	if !left.Has("127.0.0.1:9001") || left.Has("127.0.0.1:9002") || left.Len() != 3 {
		t.Errorf("membership after leave: %v", left.Addrs())
	}
}

func TestParseBackends(t *testing.T) {
	got, err := ParseBackends("127.0.0.1:9001, http://127.0.0.1:9002/, :9003")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"}
	if len(got) != len(want) {
		t.Fatalf("ParseBackends = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseBackends = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{
		"",
		",,",
		"127.0.0.1:9001,127.0.0.1:9001",        // duplicate
		"127.0.0.1:9001,http://127.0.0.1:9001", // duplicate after normalization
		"localhost",                            // no port
		"host:",                                // empty port
		"host:port",                            // non-numeric port
	} {
		if _, err := ParseBackends(bad); err == nil {
			t.Errorf("ParseBackends(%q) accepted", bad)
		}
	}
}
