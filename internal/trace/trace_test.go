package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventString(t *testing.T) {
	e := Event{
		At:   time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC),
		Host: "alice", Dir: Send, Peer: "bob", Kind: "bid", Workflow: "wf/1",
	}
	s := e.String()
	for _, want := range []string{"alice", "->", "bob", "bid", "wf/1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	e.Dir = Recv
	e.Workflow = ""
	s = e.String()
	if !strings.Contains(s, "<-") || !strings.Contains(s, "wf=-") {
		t.Errorf("String() = %q", s)
	}
}

func TestBufferRecordAndQuery(t *testing.T) {
	b := NewBuffer(0)
	b.Record(Event{Host: "a", Kind: "bid"})
	b.Record(Event{Host: "a", Kind: "award"})
	b.Record(Event{Host: "b", Kind: "bid"})
	if b.Total() != 3 {
		t.Errorf("Total = %d", b.Total())
	}
	if got := b.CountKind("bid"); got != 2 {
		t.Errorf("CountKind(bid) = %d", got)
	}
	events := b.Events()
	if len(events) != 3 || events[0].Kind != "bid" || events[1].Kind != "award" {
		t.Errorf("Events = %v", events)
	}
	// Events returns a copy.
	events[0].Kind = "mutated"
	if b.Events()[0].Kind != "bid" {
		t.Error("Events exposed internal slice")
	}
}

func TestBufferBounded(t *testing.T) {
	b := NewBuffer(10)
	for i := 0; i < 100; i++ {
		b.Record(Event{Kind: "bid"})
	}
	if b.Total() != 100 {
		t.Errorf("Total = %d", b.Total())
	}
	if n := len(b.Events()); n > 10 {
		t.Errorf("retained %d events, limit 10", n)
	}
	// The newest events are retained.
	b.Record(Event{Kind: "last"})
	events := b.Events()
	if events[len(events)-1].Kind != "last" {
		t.Error("newest event lost")
	}
}

func TestBufferWriteTo(t *testing.T) {
	b := NewBuffer(0)
	b.Record(Event{Host: "a", Peer: "b", Kind: "bid", Dir: Send})
	var sb strings.Builder
	if _, err := b.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bid") {
		t.Errorf("WriteTo = %q", sb.String())
	}
}

func TestWriterStreams(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Record(Event{Host: "a", Peer: "b", Kind: "decline", Dir: Recv})
	if !strings.Contains(sb.String(), "decline") {
		t.Errorf("stream = %q", sb.String())
	}
}

func TestBufferConcurrent(t *testing.T) {
	b := NewBuffer(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				b.Record(Event{Kind: "bid"})
				_ = b.Events()
			}
		}()
	}
	wg.Wait()
	if b.Total() != 1600 {
		t.Errorf("Total = %d", b.Total())
	}
}
