package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
)

// A task the host's memory knows one offerer of has no auction to hold: its
// award rides on that member's call for bids (CallForBidsBatch.Sole) and
// the member's bid is the commitment. The tests below pin what such a task
// keeps of an award's rules — settled alone, compensated when its reply is
// lost or its call interrupted — and that a task two members offer is
// auctioned as ever.

// soleNet is groupNet in a community whose members describe themselves: by
// the time a session solicits, its host knows t1 and t3 as p1's alone and
// t2 as p2's.
func soleNet(t *testing.T) *fakeNet {
	net := groupNet(t)
	net.describes = true
	return net
}

// solicited renders the calls for bids logged so far as "to[sole tasks]".
func solicited(f *fakeNet) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, c := range f.log {
		if cfb, ok := c.body.(proto.CallForBidsBatch); ok {
			out = append(out, fmt.Sprintf("%s%v", c.to, cfb.Sole))
		}
	}
	return out
}

// TestSoleTaskRidesOnCallForBids: with every task's one offerer known, the
// calls for bids carry the awards and no Award is sent; each task is still
// decided once, for its offerer.
func TestSoleTaskRidesOnCallForBids(t *testing.T) {
	net := soleNet(t)
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	plan, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solicited(net), []string{"p1[t1 t3]", "p2[t2]"}; !slices.Equal(got, want) {
		t.Errorf("calls for bids = %v, want %v", got, want)
	}
	if got := awards(net); len(got) != 0 {
		t.Errorf("%d Award calls, want none: %v", len(got), got)
	}
	want := map[model.TaskID]proto.Addr{"t1": "p1", "t2": "p2", "t3": "p1"}
	seen.want(t, want)
	for task, winner := range want {
		if plan.Allocations[task] != winner {
			t.Errorf("%s allocated to %q, want %q", task, plan.Allocations[task], winner)
		}
	}
}

// TestContestedTaskStillAuctioned: a second offerer of t2 puts it back in
// the auction — every member is asked about it, the winner gets an Award,
// the loser its Cancel — while t1 and t3 still ride on p1's call.
func TestContestedTaskStillAuctioned(t *testing.T) {
	net := soleNet(t)
	net.add("p3", &fakeMember{capable: map[model.TaskID]bool{"t2": true}, services: 3})
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	if _, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err != nil {
		t.Fatal(err)
	}
	if got, want := solicited(net), []string{"p1[t1 t3]", "p2[]", "p3[]"}; !slices.Equal(got, want) {
		t.Errorf("calls for bids = %v, want %v", got, want)
	}
	got := awards(net)
	if len(got) != 1 || got[0].to != "p2" || got[0].body.(proto.Award).Meta.Task != "t2" {
		t.Errorf("Award calls = %v, want t2 alone to p2", got)
	}
	if got, want := taskCancels(net), []string{"t2@p3"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v", got, want)
	}
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "p1", "t2": "p2", "t3": "p1"})
}

// TestRefusedSoleTaskFailsAlone: p1 cannot commit t3 and declines it in
// the reply that commits t1: t3 alone re-enters the failure set, t1 is
// recorded (so the failed attempt's cleanup cancels it), and the declined
// task is sent no Cancel.
func TestRefusedSoleTaskFailsAlone(t *testing.T) {
	net := soleNet(t)
	net.members["p1"].refuseTask = map[model.TaskID]bool{"t3": true}
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	_, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, ErrAllocationFailed) || !strings.Contains(err.Error(), "[t3]") {
		t.Fatalf("err = %v, want allocation failure naming t3 alone", err)
	}
	// The failure was routed from memory no older than the session, so it
	// stands: no second pass asks everyone.
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "p1", "t2": "p2", "t3": ""})
	if got, want := taskCancels(net), []string{"t1@p1", "t2@p2"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v: the committed tasks compensated, the declined one not", got, want)
	}
}

// TestLostBidReplyCancelsSoleTasks: a call for bids whose reply never comes
// back may have committed the tasks that rode on it, so each gets its
// best-effort Cancel and each is decided failed.
func TestLostBidReplyCancelsSoleTasks(t *testing.T) {
	net := soleNet(t)
	net.members["p1"].dropAwardAck = true
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	_, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, ErrAllocationFailed) || !strings.Contains(err.Error(), "[t1 t3]") {
		t.Fatalf("err = %v, want allocation failure naming t1 and t3", err)
	}
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "", "t2": "p2", "t3": ""})
	if got, want := taskCancels(net), []string{"t1@p1", "t2@p2", "t3@p1"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v", got, want)
	}
}

// cancelOnSoleNet cancels the session's context the moment a call for bids
// carrying awards reaches the given host, and loses that call.
type cancelOnSoleNet struct {
	*fakeNet
	at     proto.Addr
	cancel context.CancelFunc
}

func (c *cancelOnSoleNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if cfb, ok := body.(proto.CallForBidsBatch); ok && to == c.at && len(cfb.Sole) > 0 {
		c.cancel()
		return nil, ctx.Err()
	}
	return c.fakeNet.Call(ctx, to, workflow, body, timeout)
}

// TestCanceledMidCallCompensatesSoleTasks: a call for bids interrupted by
// its own context may have reached the member, so the tasks that rode on it
// are recorded and the session's cleanup cancels each.
func TestCanceledMidCallCompensatesSoleTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := &cancelOnSoleNet{fakeNet: soleNet(t), at: "p1", cancel: cancel}
	_, err := NewManager(net, oneAttempt()).Initiate(ctx, spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got, want := taskCancels(net.fakeNet), []string{"t1@p1", "t3@p1"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v: everything the interrupted call carried", got, want)
	}
}
