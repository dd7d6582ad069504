package backend

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	for _, want := range []string{"sim", "ensemble", "remote"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v, missing %q", names, want)
		}
	}
	for _, n := range []string{"", "sim", "ensemble", "remote"} {
		if !Known(n) {
			t.Errorf("Known(%q) = false", n)
		}
	}
	if Known("gpt-17") {
		t.Error(`Known("gpt-17") = true`)
	}
}

func TestUnknownModel(t *testing.T) {
	_, err := New("gpt-17")
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("New(gpt-17) err = %v, want ErrUnknown", err)
	}
	if !strings.Contains(err.Error(), "sim") {
		t.Errorf("error %q does not list known backends", err)
	}
}

// TestSimByName proves the acceptance contract: resolving "sim" (or the
// empty default) through the registry yields completions byte-identical
// to constructing llm.NewSim() directly.
func TestSimByName(t *testing.T) {
	ctx := context.Background()
	direct := llm.NewSim()
	for _, name := range []string{"", "sim"} {
		m, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		for _, p := range []string{
			simPrompt,
			prompt.Prompt{Task: prompt.TaskSearches, Question: "undersea cable cut"}.Encode(),
			"not a wire-format prompt", // both must reject it identically
		} {
			want, werr := direct.Complete(ctx, p)
			got, gerr := m.Complete(ctx, p)
			if got != want || (werr == nil) != (gerr == nil) {
				t.Errorf("New(%q).Complete(%q) = %q, %v; want %q, %v",
					name, p, got, gerr, want, werr)
			}
		}
	}
}

func TestEnsembleByName(t *testing.T) {
	m, err := New("ensemble")
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Complete(context.Background(), simPrompt)
	if err != nil || out == "" {
		t.Errorf("ensemble.Complete = %q, %v", out, err)
	}
}

func TestRemoteRequiresEndpoint(t *testing.T) {
	t.Setenv(EnvEndpoint, "")
	if _, err := New("remote"); err == nil {
		t.Fatal("remote without endpoint built")
	}
	t.Setenv(EnvEndpoint, "http://127.0.0.1:1/v1")
	m, err := New("remote")
	if err != nil {
		t.Fatalf("remote with env endpoint: %v", err)
	}
	if _, ok := m.(*Remote); !ok {
		t.Fatalf("remote backend is %T, want *Remote", m)
	}
}

// TestRemoteHedgeDelayFromEnv: the hedge delay is the only hedge
// setting, and the environment turns hedging on by setting it.
func TestRemoteHedgeDelayFromEnv(t *testing.T) {
	t.Setenv(EnvEndpoint, "http://127.0.0.1:1/v1")
	for env, want := range map[string]time.Duration{"": 0, "50ms": 50 * time.Millisecond, "-1s": 0, "soon": 0} {
		t.Setenv(EnvHedgeDelay, env)
		m, err := New("remote")
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*Remote).cfg.HedgeDelay; got != want {
			t.Errorf("%s=%q: hedge delay %v, want %v", EnvHedgeDelay, env, got, want)
		}
	}
}

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.requests.Add(3)
	c.retries.Add(2)
	c.failures.Add(1)
	c.breakerOpens.Add(4)
	c.cacheHits.Add(5)
	c.fallbacks.Add(6)
	got := c.Snapshot()
	want := Stats{Requests: 3, Retries: 2, Failures: 1, BreakerOpens: 4, CacheHits: 5, Fallbacks: 6}
	if got != want {
		t.Errorf("Snapshot() = %+v, want %+v", got, want)
	}
}
