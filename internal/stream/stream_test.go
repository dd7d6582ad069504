package stream

import "testing"

// TestNilObserverIsSafe: recording is optional — emitting through a nil
// observer does nothing, and Tee and Scoped over no live observer stay
// nil, so the un-observed path pays one nil check.
func TestNilObserverIsSafe(t *testing.T) {
	var o Observer
	o.Emit(Event{Type: EventOp, Text: "ask"})
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no live observer is not nil")
	}
	if Scoped("inc-000001", nil) != nil {
		t.Error("Scoped over a nil observer is not nil")
	}
}

// TestTeeAndScoped: a Tee delivers every event to each live observer in
// order, and only the Scoped branch sees the incident stamp.
func TestTeeAndScoped(t *testing.T) {
	var plain, scoped []Event
	o := Tee(
		func(e Event) { plain = append(plain, e) },
		nil,
		Scoped("inc-000001", func(e Event) { scoped = append(scoped, e) }),
	)
	o.Emit(Event{Type: EventSearch, Query: "solar storm", Results: 2})
	o.Emit(Event{Type: EventFetch, URL: "https://a.example/one", Query: "solar storm"})
	if len(plain) != 2 || len(scoped) != 2 {
		t.Fatalf("delivered %d plain and %d scoped events, want 2 each", len(plain), len(scoped))
	}
	for i := range plain {
		if plain[i].Incident != "" || scoped[i].Incident != "inc-000001" {
			t.Errorf("event %d: plain stamped %q, scoped stamped %q", i, plain[i].Incident, scoped[i].Incident)
		}
		if plain[i].Type != scoped[i].Type || plain[i].Query != scoped[i].Query {
			t.Errorf("event %d differs between branches: %+v vs %+v", i, plain[i], scoped[i])
		}
	}
	if plain[0].Type != EventSearch || plain[1].Type != EventFetch {
		t.Errorf("events out of order: %+v", plain)
	}
}
