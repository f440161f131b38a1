package engine

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"openwf/internal/proto"
)

// TestByPeer checks the one place a phase groups its messages by peer:
// peers in address order, each once, its run in the order given and capped
// at its own end, so appending to one run leaves the next intact, and the
// walk stopped by the first error.
func TestByPeer(t *testing.T) {
	type item struct {
		peer proto.Addr
		n    int
	}
	peer := func(x item) proto.Addr { return x.peer }
	stop := errors.New("stop")
	for _, tc := range []struct {
		name   string
		xs     []item
		failAt proto.Addr // with err set, each returns it for this peer
		want   string     // the calls each saw, in order
		err    error
	}{
		{name: "empty", want: ""},
		{name: "one peer", xs: []item{{"b", 1}, {"b", 2}}, want: "b[1 2]"},
		{
			name: "address order, stable runs",
			xs:   []item{{"c", 1}, {"a", 2}, {"b", 3}, {"a", 4}, {"c", 5}, {"a", 6}},
			want: "a[2 4 6] b[3] c[1 5]",
		},
		{name: "empty peer first", xs: []item{{"b", 1}, {"", 2}, {"", 3}}, want: "[2 3] b[1]"},
		{
			name:   "first error stops the walk",
			xs:     []item{{"c", 1}, {"a", 2}, {"b", 3}},
			failAt: "b",
			want:   "a[2] b[3]",
			err:    stop,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			err := byPeer(slices.Clone(tc.xs), peer, func(p proto.Addr, run []item) error {
				if cap(run) != len(run) {
					t.Errorf("run of %q has capacity %d past its %d items: an append would write into the next run", p, cap(run), len(run))
				}
				ns := make([]int, len(run))
				for i, x := range run {
					if x.peer != p {
						t.Errorf("run of %q holds an item of %q", p, x.peer)
					}
					ns[i] = x.n
				}
				got = append(got, fmt.Sprintf("%s%v", p, ns))
				if tc.err != nil && p == tc.failAt {
					return tc.err
				}
				return nil
			})
			if s := fmt.Sprint(got); s != "["+tc.want+"]" {
				t.Errorf("calls = %s, want [%s]", s, tc.want)
			}
			if !errors.Is(err, tc.err) {
				t.Errorf("err = %v, want %v", err, tc.err)
			}
		})
	}
}

// TestByPeerEmptyAllocatesNothing checks that a round with nobody to tell
// — an auction with no loser, a plan with no segment to send — costs
// nothing.
func TestByPeerEmptyAllocatesNothing(t *testing.T) {
	calls := 0
	each := func(proto.Addr, []proto.PlanSegment) error { calls++; return nil }
	peer := func(s proto.PlanSegment) proto.Addr { return proto.Addr(s.Task) }
	if n := testing.AllocsPerRun(100, func() { _ = byPeer(nil, peer, each) }); n != 0 {
		t.Errorf("byPeer over nothing allocates %v times, want 0", n)
	}
	if calls != 0 {
		t.Errorf("each called %d times over nothing", calls)
	}
}
