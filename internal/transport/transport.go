// Package transport defines the abstract communications layer of the open
// workflow management system. Per the paper's second design principle
// (§4.2), the highly variable details of transports, protocols, and
// caching are hidden behind this interface; all components — local or
// remote — exchange proto.Envelopes through it uniformly.
//
// Two substrates ship with the system: inmem (a simulated network with
// configurable latency, loss, and partitions, used for simulation
// experiments) and tcpnet (real TCP sockets, used for the empirical
// configuration). Everything between Endpoint.Send and the Handler that is
// not the medium itself lives here, once (wire.go): a Sender stamps,
// encodes, bounds and counts each envelope and puts it on the link as its
// own frame before Send returns, and Deliver decodes one. A substrate only
// moves bytes — it supplies one Link function that puts an encoded frame
// on the link to a peer, and calls Deliver on each frame that arrives — so
// the counters mean the same on either substrate by construction.
package transport

import (
	"context"

	"openwf/internal/proto"
)

// Handler receives inbound envelopes. Each endpoint invokes its handler
// sequentially from a single goroutine (a device processes one message at
// a time); handlers may call Send freely.
type Handler func(env proto.Envelope)

// Stats is the framing and round-trip accounting shared by both
// transports — the diagnostic counterpart of the paper's message counts,
// and the seed of the daemon's transport metrics. Envelopes is the number
// of envelopes put on a link, and Calls the request envelopes among them —
// each opens a Call round trip, so Calls per Initiate is the round-trip
// count the batched protocol collapses. Every envelope travels as its own
// wire frame, so Frames always equals Envelopes and Batches (frames that
// carried more than one envelope) is always 0; both stay because the
// benchmark's report reads them. FramesDropped counts frames lost after
// framing (loss model, crash, unreachable peer, failed socket write).
type Stats struct {
	Envelopes     int64
	Frames        int64
	Batches       int64
	Calls         int64
	FramesDropped int64
}

// Add merges another snapshot into s (a community's sum over its
// endpoints).
func (s *Stats) Add(o Stats) {
	s.Envelopes += o.Envelopes
	s.Frames += o.Frames
	s.Batches += o.Batches
	s.Calls += o.Calls
	s.FramesDropped += o.FramesDropped
}

// Endpoint is one host's attachment to the network.
type Endpoint interface {
	// Send transmits an envelope to another host. Delivery is
	// asynchronous; like a wireless medium, Send does not report
	// whether the recipient received the message (a partitioned or
	// absent recipient loses it silently). An error indicates a local
	// failure such as a closed endpoint. The context bounds local
	// blocking work only (connection establishment, encoding); a
	// canceled context makes Send return promptly without transmitting.
	Send(ctx context.Context, to proto.Addr, env proto.Envelope) error
	// Close detaches the endpoint; pending deliveries are dropped.
	Close() error
}
