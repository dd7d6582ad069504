// Streaming benchmarks. The interactivity claim is a latency ratio: a
// subscriber on the event stream hears about an investigation long
// before the investigation returns, so the suite pins time-to-first-event
// and time-to-first-round against the full investigation wall time.
// scripts/bench.sh records the results as BENCH_stream.json.
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/stream"
	"repro/internal/websim"
)

// streamBenchConfig gives the simulated web a small per-request latency:
// a real investigation is bound by network and model calls, and that gap
// is exactly what streaming exists to fill. Without it the zero-latency
// sim finishes whole investigations in about a millisecond and the
// comparison measures only scheduler wake jitter.
var streamBenchConfig = session.Config{
	Seed:       42,
	WebOptions: websim.Options{Latency: 500 * time.Microsecond},
}

// waitEvent blocks until the session publishes an event with ID > after
// that satisfies want (nil = any event), returning the last ID seen.
func waitEvent(s *session.Session, after int64, want func(stream.Event) bool) int64 {
	for {
		evs, _, change := s.Events(after)
		for _, e := range evs {
			after = e.ID
			if want == nil || want(e) {
				return after
			}
		}
		if len(evs) == 0 {
			<-change
		}
	}
}

// benchTimeToEvent measures, per iteration on a fresh untrained session
// (so the investigation is the full cold multi-round loop, not a warm
// re-check), the gap between kicking off Investigate and the first event
// matching want. The investigation is cancelled once the event arrives —
// only the subscriber's wait is on the clock.
func benchTimeToEvent(b *testing.B, want func(stream.Event) bool) {
	b.Helper()
	m := session.NewManager(session.ManagerConfig{Capacity: 4, Defaults: streamBenchConfig})
	b.Cleanup(m.Shutdown)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := fmt.Sprintf("cold-%d", i)
		s, err := m.Create(id, streamBenchConfig)
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		b.StartTimer()
		go func() {
			_, _ = s.Investigate(ctx, askQuestion)
			close(done)
		}()
		waitEvent(s, 0, want)
		b.StopTimer()
		cancel()
		<-done
		if err := m.Close(context.Background(), id, true); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStreamFirstEvent measures how quickly a subscriber hears that
// an investigation has started: the gap between kicking off Investigate
// and the first event landing in the buffer. This is the interactivity
// headline — compare against BenchmarkStreamFullInvestigate.
func BenchmarkStreamFirstEvent(b *testing.B) {
	benchTimeToEvent(b, nil)
}

// BenchmarkStreamFirstRound measures time to the first round event — the
// first substantive progress signal (an answer attempt with confidence),
// not just the operation boundary.
func BenchmarkStreamFirstRound(b *testing.B) {
	benchTimeToEvent(b, func(e stream.Event) bool { return e.Type == stream.EventRound })
}

// BenchmarkStreamFullInvestigate is the baseline the streaming latencies
// are judged against: the same cold investigation, start to final answer.
func BenchmarkStreamFullInvestigate(b *testing.B) {
	m := session.NewManager(session.ManagerConfig{Capacity: 4, Defaults: streamBenchConfig})
	b.Cleanup(m.Shutdown)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := fmt.Sprintf("full-%d", i)
		s, err := m.Create(id, streamBenchConfig)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Investigate(ctx, askQuestion); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := m.Close(ctx, id, true); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
