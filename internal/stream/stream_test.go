package stream

import (
	"reflect"
	"testing"
)

// TestNilObserverIsSafe: recording is optional — emitting through a nil
// observer does nothing, and a Tee over no live observer stays nil, so
// the un-observed path pays one nil check.
func TestNilObserverIsSafe(t *testing.T) {
	var o Observer
	o.Emit(Event{Type: EventOp, Text: "ask"})
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no live observer is not nil")
	}
}

// TestTee: a Tee delivers every event to each live observer in order,
// unchanged, and skips nil observers.
func TestTee(t *testing.T) {
	var first, second []Event
	o := Tee(
		func(e Event) { first = append(first, e) },
		nil,
		func(e Event) { second = append(second, e) },
	)
	want := []Event{
		{Type: EventSearch, Query: "solar storm", Results: 2},
		{Type: EventFetch, URL: "https://a.example/one", Query: "solar storm"},
	}
	for _, e := range want {
		o.Emit(e)
	}
	if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
		t.Errorf("delivered\n%+v\nand\n%+v\nwant %+v to each, in order", first, second, want)
	}
}
