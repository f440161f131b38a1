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

// A session whose host's memory knows one offerer of every task has no
// auction to hold: each offerer is sent one held award (proto.Award.Hold)
// and no call for bids. The tests below pin that such an award keeps an
// award's rules — each task settled alone, compensated when its reply is
// lost or its call interrupted — and that a session with a task two members
// offer is auctioned whole.

// soleNet is groupNet in a community whose members describe themselves: by
// the time a session solicits, its host knows t1 and t3 as p1's alone and
// t2 as p2's.
func soleNet(t *testing.T) *fakeNet {
	net := groupNet(t)
	net.describes = true
	return net
}

// solicited renders the calls for bids and awards logged so far as
// "cfb:to" and "award:to[tasks]", "held:to[tasks]" when the award holds.
func solicited(f *fakeNet) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, c := range f.log {
		switch b := c.body.(type) {
		case proto.CallForBidsBatch:
			out = append(out, "cfb:"+string(c.to))
		case proto.Award:
			kind, tasks := "award", []model.TaskID{b.Meta.Task}
			if b.Hold {
				kind = "held"
			}
			for _, meta := range b.More {
				tasks = append(tasks, meta.Task)
			}
			out = append(out, fmt.Sprintf("%s:%s%v", kind, c.to, tasks))
		}
	}
	return out
}

// TestSoleTaskRidesOnCallForBids: with every task's one offerer known, no
// call for bids is sent: each offerer gets one held award, in winner order,
// and each task is still decided once, for its offerer.
func TestSoleTaskRidesOnCallForBids(t *testing.T) {
	net := soleNet(t)
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	plan, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solicited(net), []string{"held:p1[t1 t3]", "held:p2[t2]"}; !slices.Equal(got, want) {
		t.Errorf("calls = %v, want %v", got, want)
	}
	want := map[model.TaskID]proto.Addr{"t1": "p1", "t2": "p2", "t3": "p1"}
	seen.want(t, want)
	for task, winner := range want {
		if plan.Allocations[task] != winner {
			t.Errorf("%s allocated to %q, want %q", task, plan.Allocations[task], winner)
		}
	}
}

// TestContestedTaskStillAuctioned: a second offerer of t2 puts the session
// back in the auction — every member that offers a task is called for bids,
// each winner gets an Award that does not hold, the loser its Cancel.
func TestContestedTaskStillAuctioned(t *testing.T) {
	net := soleNet(t)
	net.add("p3", &fakeMember{capable: map[model.TaskID]bool{"t2": true}, services: 3})
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	if _, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err != nil {
		t.Fatal(err)
	}
	want := []string{"cfb:p1", "cfb:p2", "cfb:p3", "award:p1[t1 t3]", "award:p2[t2]"}
	if got := solicited(net); !slices.Equal(got, want) {
		t.Errorf("calls = %v, want %v", got, want)
	}
	if got, want := taskCancels(net), []string{"t2@p3"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v", got, want)
	}
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "p1", "t2": "p2", "t3": "p1"})
}

// TestRefusedSoleTaskFailsAlone: p1 cannot commit t3 and refuses it in the
// ack that confirms t1: t3 alone re-enters the failure set, t1 is recorded
// (so the failed attempt's cleanup cancels it), and the refused task is
// sent no Cancel.
func TestRefusedSoleTaskFailsAlone(t *testing.T) {
	net := soleNet(t)
	net.members["p1"].refuseTask = map[model.TaskID]bool{"t3": true}
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	_, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, ErrAllocationFailed) || !strings.Contains(err.Error(), "[t3]") {
		t.Fatalf("err = %v, want allocation failure naming t3 alone", err)
	}
	// The failure was decided from memory no older than the session, so it
	// stands: no second pass asks everyone.
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "p1", "t2": "p2", "t3": ""})
	if got, want := taskCancels(net), []string{"t1@p1", "t2@p2"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v: the committed tasks compensated, the declined one not", got, want)
	}
}

// TestLostBidReplyCancelsSoleTasks: a held award whose ack never comes back
// may have committed its tasks, so each gets its best-effort Cancel and
// each is decided failed.
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

// cancelOnSoleNet cancels the session's context the moment a held award
// reaches the given host, and loses that call.
type cancelOnSoleNet struct {
	*fakeNet
	at     proto.Addr
	cancel context.CancelFunc
}

func (c *cancelOnSoleNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if award, ok := body.(proto.Award); ok && to == c.at && award.Hold {
		c.cancel()
		return nil, ctx.Err()
	}
	return c.fakeNet.Call(ctx, to, workflow, body, timeout)
}

// TestCanceledMidCallCompensatesSoleTasks: a held award interrupted by its
// own context may have reached the member, so its tasks are recorded and
// the session's cleanup cancels each.
func TestCanceledMidCallCompensatesSoleTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := &cancelOnSoleNet{fakeNet: soleNet(t), at: "p1", cancel: cancel}
	_, err := NewManager(net, oneAttempt()).Initiate(ctx, spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got, want := taskCancels(net.fakeNet), []string{"t1@p1", "t3@p1"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v: everything the interrupted award carried", got, want)
	}
}
