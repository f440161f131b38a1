package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"openwf/internal/proto"
)

func env(n int) proto.Envelope {
	return proto.Envelope{From: "a", To: "b", ReqID: uint64(n), Body: proto.Ack{}}
}

// TestSendReachesTheLinkBeforeReturning: a Send that returned nil has put
// its envelope on the link itself. While one write to a peer is stalled in
// the link, another Send to that peer, and then more than a thousand from
// other goroutines, each reach the link before they return — none waits in
// a queue for the stalled writer to carry it, and none is dropped.
func TestSendReachesTheLinkBeforeReturning(t *testing.T) {
	const others = 1025
	ctx := context.Background()
	var count Counters
	var calls atomic.Int64
	reached := make([]atomic.Bool, others+2) // by ReqID
	parked, release := make(chan struct{}), make(chan struct{})
	s := NewSender("a", 0, &count, func(_ context.Context, _ proto.Addr, frame []byte) error {
		e, err := proto.Decode(frame)
		if err != nil {
			t.Error(err)
			return nil
		}
		reached[e.ReqID].Store(true)
		if calls.Add(1) == 1 {
			close(parked)
			<-release
		}
		return nil
	})
	send := func(id int) {
		if err := s.Send(ctx, "b", env(id)); err != nil {
			t.Errorf("Send %d: %v", id, err)
		} else if !reached[id].Load() {
			t.Errorf("Send %d returned nil before its envelope reached the link", id)
		}
	}

	first := make(chan struct{})
	go func() {
		defer close(first)
		send(0)
	}()
	<-parked
	send(1)
	var wg sync.WaitGroup
	for id := 2; id < others+2; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(id)
		}()
	}
	wg.Wait()
	close(release)
	<-first

	n := calls.Load()
	if n != others+2 {
		t.Fatalf("%d link calls, want %d", n, others+2)
	}
	if want := (Stats{Envelopes: n, Frames: n}); count.Stats() != want {
		t.Errorf("Stats = %+v, want %+v", count.Stats(), want)
	}
}
