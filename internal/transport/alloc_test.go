package transport

import (
	"context"
	"testing"

	"openwf/internal/proto"
	"openwf/internal/testutil"
)

// TestCoalescerIdleLinkAllocFree pins the send path on an idle link:
// Sender.Send stamps, encodes into a pooled buffer and hands the frame to
// the link with zero heap allocations per message. Every envelope the
// transports carry takes this path, so a regression here taxes them all.
func TestCoalescerIdleLinkAllocFree(t *testing.T) {
	var count Counters
	s := NewSender("a", 0, &count, func(context.Context, proto.Addr, []byte) error { return nil })
	ctx, e := context.Background(), env(1)
	testutil.AllocBound(t, 0, func() {
		if err := s.Send(ctx, "b", e); err != nil {
			t.Error(err)
		}
	})
}
