package transport_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"openwf/internal/proto"
	"openwf/internal/transport"
	"openwf/internal/transport/inmem"
	"openwf/internal/transport/tcpnet"
)

// sender is the part of an endpoint both substrates get from the embedded
// transport.Sender: Send's two steps, which is how a test parks a writer
// on a link without a substrate-specific hook.
type sender interface {
	transport.Endpoint
	Admit(to proto.Addr, env proto.Envelope) (proto.Envelope, bool)
	Drain(ctx context.Context, to proto.Addr)
}

// TestSubstratesAgree drives one envelope sequence from a to b through
// each substrate and holds both to one expected outcome: the handler sees
// the envelopes that were sent, in that order, never a proto.EnvelopeBatch
// (its kind is none that was sent), and Stats is equal field by field — the
// counters are produced by the shared sender, so they cannot mean
// different things on different substrates.
func TestSubstratesAgree(t *testing.T) {
	substrates := []struct {
		name string
		// attach returns endpoint a, connected to an endpoint b that
		// handles with h, and the counters a's sends are accounted in.
		attach func(t *testing.T, h transport.Handler) (transport.Endpoint, func() transport.Stats)
	}{
		{"inmem", func(t *testing.T, h transport.Handler) (transport.Endpoint, func() transport.Stats) {
			n := inmem.NewNetwork()
			t.Cleanup(func() { _ = n.Close() })
			if _, err := n.Endpoint("b", h); err != nil {
				t.Fatal(err)
			}
			a, err := n.Endpoint("a", func(proto.Envelope) {})
			if err != nil {
				t.Fatal(err)
			}
			return a, n.Stats
		}},
		{"tcpnet", func(t *testing.T, h transport.Handler) (transport.Endpoint, func() transport.Stats) {
			a, _, err := tcpnet.Listen("a", func(proto.Envelope) {})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = a.Close() })
			b, hp, err := tcpnet.Listen("b", h)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = b.Close() })
			a.SetRegistry(map[proto.Addr]string{"b": hp})
			return a, a.Stats
		}},
	}
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			var mu sync.Mutex
			var seen []proto.Envelope
			ep, stats := sub.attach(t, func(env proto.Envelope) {
				mu.Lock()
				seen = append(seen, env)
				mu.Unlock()
			})
			a := ep.(sender)
			ctx := context.Background()
			var sent []string // body kinds, in send order; ReqID is the place in it
			send := func(body proto.Body) {
				t.Helper()
				sent = append(sent, body.Kind())
				if err := a.Send(ctx, "b", proto.Envelope{ReqID: uint64(len(sent)), Workflow: "wf", Body: body}); err != nil {
					t.Fatal(err)
				}
			}
			// parked queues n envelopes behind a writer that owns the link
			// but transmits nothing, then drains them.
			parked := func(n int) {
				t.Helper()
				if _, writer := a.Admit("b", proto.Envelope{Body: proto.Ack{}}); !writer {
					t.Fatal("expected to become the writer on an idle link")
				}
				for i := 0; i < n; i++ {
					send(proto.Cancel{Task: "t"})
				}
				a.Drain(ctx, "b")
			}

			for i := 0; i < 3; i++ { // lone envelopes on an idle link: 3 frames
				send(proto.Cancel{Task: "t"})
			}
			parked(4)                              // a burst behind a writer: 1 batch
			send(proto.FragmentQuery{Labels: nil}) // one request: 1 frame, 1 call
			parked(transport.MaxCoalesce + 1)      // a 33-envelope queue: a full batch and a lone frame
			want := transport.Stats{Envelopes: int64(len(sent)), Frames: 7, Batches: 2, Calls: 1}

			deadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				got := len(seen)
				mu.Unlock()
				if got == len(sent) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("handler saw %d of %d envelopes", got, len(sent))
				}
				time.Sleep(time.Millisecond)
			}
			for i, env := range seen {
				if env.ReqID != uint64(i+1) || env.Body.Kind() != sent[i] || env.From != "a" || env.To != "b" || env.Workflow != "wf" {
					t.Fatalf("envelope %d = %+v, want the %s with ReqID %d from a to b", i, env, sent[i], i+1)
				}
			}
			if got := stats(); got != want {
				t.Errorf("Stats = %+v, want %+v", got, want)
			}
		})
	}
}
