package agent

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autogpt"
	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/stream"
	"repro/internal/websim"
	"repro/internal/world"
)

// recordEvents attaches an observer to a that collects every event it
// emits, in order.
func recordEvents(a *Agent) *[]stream.Event {
	var evs []stream.Event
	a.Observer = func(e stream.Event) { evs = append(evs, e) }
	return &evs
}

// runFull trains a fresh Bob and investigates the cable question with
// the given retrieval width, returning the agent, the investigation and
// every event the agent emitted, for output comparison.
func runFull(t *testing.T, cfg Config) (*Agent, Investigation, []stream.Event) {
	t.Helper()
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	bob := New(BobRole(), llm.NewSim(), eng, nil, cfg)
	evs := recordEvents(bob)
	if _, err := bob.Train(context.Background()); err != nil {
		t.Fatalf("train: %v", err)
	}
	inv, err := bob.Investigate(context.Background(), cableQuestion)
	if err != nil {
		t.Fatalf("investigate: %v", err)
	}
	return bob, inv, *evs
}

// TestRetrievalPipelineByteIdentity is the tentpole invariant: the
// committed memory, the events, and the investigation are item-for-item
// identical whether the retrieval rounds ran sequentially or fanned
// out — the pipeline only reorders the waiting, never the commits.
func TestRetrievalPipelineByteIdentity(t *testing.T) {
	configs := map[string]Config{
		"plain": {},
		"cot":   {Runner: autogpt.Config{ChainOfThought: true}},
	}
	for name, base := range configs {
		t.Run(name, func(t *testing.T) {
			seq := base
			seq.RetrievalWorkers = 1
			refAgent, refInv, refEvents := runFull(t, seq)
			for _, workers := range []int{2, 8} {
				cfg := base
				cfg.RetrievalWorkers = workers
				got, gotInv, gotEvents := runFull(t, cfg)
				if !reflect.DeepEqual(got.Memory.All(), refAgent.Memory.All()) {
					t.Errorf("workers=%d: committed memory diverged from sequential run", workers)
				}
				if !reflect.DeepEqual(gotEvents, refEvents) {
					t.Errorf("workers=%d: events diverged from sequential run", workers)
				}
				if !reflect.DeepEqual(gotInv, refInv) {
					t.Errorf("workers=%d: investigation diverged from sequential run", workers)
				}
			}
		})
	}
}

// dupWeb serves two queries whose results overlap on one URL, counting
// fetches so the dedup is observable.
type dupWeb struct {
	fetches atomic.Int64
}

func (w *dupWeb) Search(_ context.Context, q string, k int) ([]websim.Result, error) {
	urls := map[string][]string{
		"alpha": {"https://a.example/one", "https://a.example/two"},
		"beta":  {"https://a.example/two", "https://a.example/three"},
	}[q]
	out := make([]websim.Result, 0, k)
	for _, u := range urls {
		if len(out) == k {
			break
		}
		out = append(out, websim.Result{URL: u, Title: u})
	}
	return out, nil
}

func (w *dupWeb) Fetch(_ context.Context, url string) (websim.Page, error) {
	w.fetches.Add(1)
	return websim.Page{URL: url, Body: "evidence about " + url + " with enough words to index"}, nil
}

// TestSelfLearnSkipsDuplicateURLs: a URL surfaced by two queries in the
// same pass is fetched once, in both sequential and fanned-out modes.
func TestSelfLearnSkipsDuplicateURLs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		web := &dupWeb{}
		bob := New(BobRole(), llm.NewSim(), web, nil, Config{RetrievalWorkers: workers})
		if _, err := bob.SelfLearn(context.Background(), []string{"alpha", "beta"}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := web.fetches.Load(); got != 3 {
			t.Errorf("workers=%d: fetched %d URLs, want 3 (one duplicate skipped)", workers, got)
		}
	}
}

// blockingWeb parks every Fetch on the context — the cancel-mid-fetch
// fixture for the drain test.
type blockingWeb struct {
	dupWeb
	started atomic.Int64
}

func (w *blockingWeb) Fetch(ctx context.Context, _ string) (websim.Page, error) {
	w.started.Add(1)
	<-ctx.Done()
	return websim.Page{}, ctx.Err()
}

// TestSelfLearnCancelNoLeak: cancelling mid-fetch commits nothing,
// surfaces the context error wrapped exactly once, and leaves no pool
// goroutine behind.
func TestSelfLearnCancelNoLeak(t *testing.T) {
	web := &blockingWeb{}
	bob := New(BobRole(), llm.NewSim(), web, nil, Config{RetrievalWorkers: 4})
	evs := recordEvents(bob)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		added int
		err   error
	}
	done := make(chan result, 1)
	go func() {
		added, err := bob.SelfLearn(ctx, []string{"alpha", "beta"})
		done <- result{added, err}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for web.started.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	res := <-done
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.err)
	}
	if want := "agent: self-learn: context canceled"; res.err.Error() != want {
		t.Fatalf("err = %q, want %q (wrapped exactly once)", res.err, want)
	}
	if res.added != 0 {
		t.Fatalf("added = %d after cancellation, want 0", res.added)
	}
	settle := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(settle) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines did not drain: before=%d now=%d", before, n)
	}
	// Nothing may have been committed for the cancelled round.
	for _, ev := range *evs {
		if ev.Type == stream.EventFetch {
			t.Fatalf("cancelled round recorded a fetch: %+v", ev)
		}
	}
}
