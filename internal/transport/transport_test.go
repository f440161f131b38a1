package transport

import (
	"context"
	"errors"
	"testing"

	"openwf/internal/model"
	"openwf/internal/proto"
)

func env(n int) proto.Envelope {
	return proto.Envelope{From: "a", To: "b", ReqID: uint64(n), Body: proto.Ack{}}
}

// TestCoalescerProtocol drives the shared write-side state machine
// directly: the first Admit on an idle coalescer elects the writer,
// subsequent Admits queue, Drain flushes everything in order in frames
// of at most MaxCoalesce, and the coalescer then goes idle again.
func TestCoalescerProtocol(t *testing.T) {
	var c Coalescer
	if w, d := c.Admit(env(0)); !w || d {
		t.Fatalf("first Admit: writer=%v dropped=%v, want writer", w, d)
	}
	total := MaxCoalesce + 7
	for i := 1; i <= total; i++ {
		if w, d := c.Admit(env(i)); w || d {
			t.Fatalf("Admit %d while busy: writer=%v dropped=%v", i, w, d)
		}
	}
	var frames [][]proto.Envelope
	c.Drain("a", "b", func(e proto.Envelope) error {
		if b, ok := e.Body.(proto.EnvelopeBatch); ok {
			frames = append(frames, b.Envelopes)
		} else {
			frames = append(frames, []proto.Envelope{e})
		}
		return nil
	})
	seen := 0
	for _, f := range frames {
		if len(f) > MaxCoalesce {
			t.Fatalf("frame of %d envelopes exceeds MaxCoalesce", len(f))
		}
		for _, e := range f {
			seen++
			if e.ReqID != uint64(seen) {
				t.Fatalf("order broken: envelope %d has ReqID %d", seen, e.ReqID)
			}
		}
	}
	if seen != total {
		t.Fatalf("drained %d envelopes, want %d", seen, total)
	}
	// Idle again: the next Admit elects a writer.
	if w, _ := c.Admit(env(0)); !w {
		t.Fatal("coalescer did not go idle after Drain")
	}
}

// TestCoalescerQueueCap: a stalled writer cannot grow the queue without
// bound — Admits beyond MaxOutboxQueue report the envelope dropped.
func TestCoalescerQueueCap(t *testing.T) {
	var c Coalescer
	if w, _ := c.Admit(env(0)); !w {
		t.Fatal("first Admit must elect the writer")
	}
	for i := 0; i < MaxOutboxQueue; i++ {
		if _, d := c.Admit(env(i)); d {
			t.Fatalf("Admit %d dropped below the cap", i)
		}
	}
	if _, d := c.Admit(env(MaxOutboxQueue)); !d {
		t.Fatal("Admit beyond MaxOutboxQueue not dropped")
	}
	// Draining frees capacity again.
	kept := 0
	c.Drain("a", "b", func(e proto.Envelope) error {
		if b, ok := e.Body.(proto.EnvelopeBatch); ok {
			kept += len(b.Envelopes)
		} else {
			kept++
		}
		return nil
	})
	if kept != MaxOutboxQueue {
		t.Fatalf("drained %d envelopes, want %d", kept, MaxOutboxQueue)
	}
	if _, d := c.Admit(env(1)); d {
		t.Fatal("Admit dropped on a drained coalescer")
	}
}

// TestRefusedDrainCountsQueuedEnvelopeLost: an envelope queued behind the
// write in flight was accepted — its Send returned nil — so when the link
// refuses the frame that drains it, it counts as accepted and lost, as an
// envelope refused at MaxOutboxQueue does, and under no frame or call.
func TestRefusedDrainCountsQueuedEnvelopeLost(t *testing.T) {
	ctx := context.Background()
	var count Counters
	var s *Sender
	writes := 0
	s = NewSender("a", 0, &count, func(ctx context.Context, to proto.Addr, frame []byte, envelopes int64) error {
		writes++
		if writes == 1 {
			// Queued behind this write, the link being busy.
			if err := s.Send(ctx, to, proto.Envelope{ReqID: 2, Body: proto.Cancel{Task: "t"}}); err != nil {
				t.Errorf("queued Send: %v", err)
			}
			return nil
		}
		return errors.New("link closed")
	})
	if err := s.Send(ctx, "b", proto.Envelope{ReqID: 1, Body: proto.LeaseRefresh{Tasks: []model.TaskID{"t"}}}); err != nil {
		t.Fatal(err)
	}
	if writes != 2 {
		t.Fatalf("%d writes, want the first and the refused drain", writes)
	}
	want := Stats{Envelopes: 2, Frames: 1, Calls: 1}
	if got := count.Stats(); got != want || count.Lost() != 1 {
		t.Errorf("stats %+v with %d lost, want %+v with 1 lost", got, count.Lost(), want)
	}
}
