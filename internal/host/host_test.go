package host

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openwf/internal/auction"
	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/testutil"
	"openwf/internal/transport"
	"openwf/internal/transport/inmem"
)

func lbl(ls ...string) []model.LabelID {
	out := make([]model.LabelID, len(ls))
	for i, l := range ls {
		out[i] = model.LabelID(l)
	}
	return out
}

func mkFrag(t *testing.T, name, in, out string) *model.Fragment {
	t.Helper()
	f, err := model.NewFragment(name, model.Task{
		ID: model.TaskID("task-" + name), Mode: model.Conjunctive,
		Inputs: lbl(in), Outputs: lbl(out),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pair starts two attached hosts on a fresh in-memory network.
func pair(t *testing.T, cfgA, cfgB Config) (*Host, *Host) {
	t.Helper()
	net := inmem.NewNetwork()
	t.Cleanup(func() { _ = net.Close() })
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	epA, err := net.Endpoint(cfgA.Addr, a.Handle)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Endpoint(cfgB.Addr, b.Handle)
	if err != nil {
		t.Fatal(err)
	}
	a.Attach(epA)
	b.Attach(epB)
	members := []proto.Addr{cfgA.Addr, cfgB.Addr}
	a.SetMembers(members)
	b.SetMembers(members)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty address accepted")
	}
	if _, err := New(Config{Addr: "h", Fragments: []*model.Fragment{{Name: "bad"}}}); err == nil {
		t.Error("invalid fragment accepted")
	}
	if _, err := New(Config{Addr: "h", Services: []service.Registration{{}}}); err == nil {
		t.Error("invalid service accepted")
	}
}

func TestCallFragmentQuery(t *testing.T) {
	a, _ := pair(t,
		Config{Addr: "a"},
		Config{Addr: "b", Fragments: []*model.Fragment{mkFrag(t, "f", "x", "y")}},
	)
	reply, err := a.Call(context.Background(), "b", "wf", proto.FragmentQuery{Labels: lbl("x")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := reply.(proto.FragmentReply)
	if !ok || len(fr.Fragments) != 1 || fr.Fragments[0].Name != "f" {
		t.Fatalf("reply = %#v", reply)
	}
	// Non-matching query returns empty.
	reply, err = a.Call(context.Background(), "b", "wf", proto.FragmentQuery{Labels: lbl("zzz")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fr := reply.(proto.FragmentReply); len(fr.Fragments) != 0 {
		t.Fatalf("reply = %#v", fr)
	}
}

func TestCallFragmentQueryNilMeansAll(t *testing.T) {
	a, _ := pair(t,
		Config{Addr: "a"},
		Config{Addr: "b", Fragments: []*model.Fragment{
			mkFrag(t, "f1", "x", "y"), mkFrag(t, "f2", "p", "q"),
		}},
	)
	reply, err := a.Call(context.Background(), "b", "wf", proto.FragmentQuery{Labels: nil}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fr := reply.(proto.FragmentReply); len(fr.Fragments) != 2 {
		t.Fatalf("full-collection reply = %d fragments", len(fr.Fragments))
	}
}

// TestCallFragmentQueryDescribe: a describing query is answered with the
// host's complete capability set on top of the matching fragments — the
// set covers what the query did not ask about, is sorted, and is present
// (empty, not nil) for a host with nothing to offer; a plain query gets a
// plain reply.
func TestCallFragmentQueryDescribe(t *testing.T) {
	a, _ := pair(t,
		Config{Addr: "a"},
		Config{Addr: "b",
			Fragments: []*model.Fragment{mkFrag(t, "f1", "x", "y"), mkFrag(t, "f2", "p", "q")},
			Services: []service.Registration{
				{Descriptor: service.Descriptor{Task: "fly", Specialization: 0.5}},
				{Descriptor: service.Descriptor{Task: "cook", Specialization: 0.5}},
			}},
	)
	describe := func(to proto.Addr, q proto.FragmentQuery) proto.FragmentReply {
		t.Helper()
		reply, err := a.Call(context.Background(), to, "wf", q, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return reply.(proto.FragmentReply)
	}
	if fr := describe("b", proto.FragmentQuery{Labels: lbl("x")}); fr.Capabilities != nil {
		t.Fatalf("undescribing query answered with a description: %+v", fr.Capabilities)
	}
	fr := describe("b", proto.FragmentQuery{Labels: lbl("x"), Describe: true})
	if len(fr.Fragments) != 1 || fr.Fragments[0].Name != "f1" {
		t.Fatalf("fragments = %v", fr.Fragments)
	}
	want := &proto.Advertise{Labels: lbl("p", "x"), Tasks: []model.TaskID{"cook", "fly"}}
	if !reflect.DeepEqual(fr.Capabilities, want) {
		t.Fatalf("description = %+v, want %+v", fr.Capabilities, want)
	}
	if fr := describe("a", proto.FragmentQuery{Labels: lbl("x"), Describe: true}); fr.Capabilities == nil ||
		len(fr.Capabilities.Labels)+len(fr.Capabilities.Tasks) != 0 {
		t.Fatalf("a host with nothing to offer described itself as %+v, want an empty set", fr.Capabilities)
	}
}

func TestCallFeasibilityQuery(t *testing.T) {
	a, _ := pair(t,
		Config{Addr: "a"},
		Config{Addr: "b", Services: []service.Registration{
			{Descriptor: service.Descriptor{Task: "cook", Specialization: 0.5}},
		}},
	)
	reply, err := a.Call(context.Background(), "b", "wf", proto.FeasibilityQuery{Tasks: []model.TaskID{"cook", "fly"}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fr := reply.(proto.FeasibilityReply)
	if len(fr.Capable) != 1 || fr.Capable[0] != "cook" {
		t.Fatalf("Capable = %v", fr.Capable)
	}
}

func TestCallForBidsAndAward(t *testing.T) {
	a, b := pair(t,
		Config{Addr: "a"},
		Config{Addr: "b", Services: []service.Registration{
			{Descriptor: service.Descriptor{Task: "cook", Specialization: 0.5}},
		}},
	)
	meta := proto.TaskMeta{
		Task: "cook", Mode: model.Conjunctive,
		Inputs: lbl("in"), Outputs: lbl("out"),
		Start: time.Now().Add(time.Hour), End: time.Now().Add(2 * time.Hour),
	}
	reply, err := a.Call(context.Background(), "b", "wf", proto.CallForBidsBatch{Metas: []proto.TaskMeta{meta}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bids, ok := reply.(proto.BidBatch)
	if !ok || len(bids.Bids) != 1 || len(bids.Declines) != 0 {
		t.Fatalf("reply = %#v, want one bid", reply)
	}
	if bids.Bids[0].ServicesOffered != 1 {
		t.Errorf("ServicesOffered = %d", bids.Bids[0].ServicesOffered)
	}
	reply, err = a.Call(context.Background(), "b", "wf", proto.Award{Meta: meta}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ack := reply.(proto.AwardAck)
	if len(ack.Verdicts) != 1 || !ack.Verdicts[0].OK {
		t.Fatalf("award refused: %+v", ack.Verdicts)
	}
	if _, ok := b.Schedule.Get("wf", "cook"); !ok {
		t.Error("award did not create a commitment")
	}
	if b.Exec.Pending() != 1 {
		t.Errorf("Exec.Pending = %d", b.Exec.Pending())
	}
	// Cancel is one-way.
	if err := a.Send(context.Background(), "b", "wf", proto.Cancel{Task: "cook"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		if _, ok := b.Schedule.Get("wf", "cook"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never processed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAwardGroupSettlesEachTaskAlone: one Award carrying three tasks is
// answered by one ack with a verdict per task, in order. The task whose
// service was withdrawn after the bid and the task that was never held are
// refused alone, with their slots free afterwards; the third is committed
// and registered for execution — and one plan request carrying two
// segments arms the run it has and drops the one it has not.
func TestAwardGroupSettlesEachTaskAlone(t *testing.T) {
	reg := func(task model.TaskID) service.Registration {
		return service.Registration{Descriptor: service.Descriptor{Task: task, Specialization: 0.5}}
	}
	a, b := pair(t, Config{Addr: "a"}, Config{Addr: "b", Services: []service.Registration{reg("chop"), reg("cook"), reg("serve")}})
	start := time.Now().Add(time.Hour)
	meta := func(task model.TaskID, slot int) proto.TaskMeta {
		at := start.Add(time.Duration(slot) * time.Minute)
		return proto.TaskMeta{Task: task, Mode: model.Conjunctive, Inputs: lbl("in"), Outputs: lbl("out"), Start: at, End: at.Add(time.Minute)}
	}
	chop, cook, serve := meta("chop", 0), meta("cook", 1), meta("serve", 2)
	reply, err := a.Call(context.Background(), "b", "wf", proto.CallForBidsBatch{Metas: []proto.TaskMeta{chop, cook}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bids := reply.(proto.BidBatch); len(bids.Bids) != 2 {
		t.Fatalf("reply = %#v, want two bids", reply)
	}
	b.Services.Unregister("cook")

	reply, err = a.Call(context.Background(), "b", "wf", proto.Award{Meta: chop, More: []proto.TaskMeta{cook, serve}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := reply.(proto.AwardAck)
	if !ok || len(ack.Verdicts) != 3 {
		t.Fatalf("reply = %#v, want one ack with three verdicts", reply)
	}
	if v := ack.Verdicts[0]; v.Task != "chop" || !v.OK {
		t.Errorf("chop: verdict %+v, want confirmed", v)
	}
	if v := ack.Verdicts[1]; v.Task != "cook" || v.OK || v.Reason != "service no longer offered" {
		t.Errorf("cook: verdict %+v, want refused for its withdrawn service", v)
	}
	if v := ack.Verdicts[2]; v.Task != "serve" || v.OK || v.Reason == "" {
		t.Errorf("serve: verdict %+v, want refused for lack of a hold", v)
	}
	if holds, commits := b.Schedule.Holds(), len(b.Schedule.Commitments()); holds != 0 || commits != 1 {
		t.Errorf("%d holds, %d commitments after the award; want the refused slots free and chop committed", holds, commits)
	}
	if _, ok := b.Schedule.Get("wf", "chop"); !ok {
		t.Error("chop was not committed")
	}
	if runs, _ := b.Exec.Residue(); runs != 1 {
		t.Errorf("%d runs registered, want chop's alone", runs)
	}

	seg := func(task model.TaskID) proto.PlanSegment {
		return proto.PlanSegment{Task: task, Initiator: "a",
			InputSources: map[model.LabelID]proto.Addr{"in": "a"}, OutputSinks: map[model.LabelID][]proto.Addr{"out": {"a"}}}
	}
	plan := proto.Plan{Segments: []proto.PlanSegment{seg("cook"), seg("chop")}}
	reply, err = a.Call(context.Background(), "b", "wf", plan, time.Second)
	if _, ok := reply.(proto.Ack); err != nil || !ok {
		t.Fatalf("plan request: reply %#v, err %v; want one Ack", reply, err)
	}
	if runs, _ := b.Exec.Residue(); runs != 1 || b.Exec.Pending() != 1 {
		t.Errorf("%d runs, %d pending after the plan; want chop's run armed and nothing made up for cook", runs, b.Exec.Pending())
	}
}

// TestSoleTasksCommittedOnTheCall: of one call for bids on three tasks, two
// named Sole, the host commits and registers the sole task it can bid for
// (its Bid is the confirmation), declines the sole task whose slot a rival
// workflow holds — leaving that hold alone — and merely holds the third.
func TestSoleTasksCommittedOnTheCall(t *testing.T) {
	reg := func(task model.TaskID) service.Registration {
		return service.Registration{Descriptor: service.Descriptor{Task: task, Specialization: 0.5}}
	}
	a, b := pair(t, Config{Addr: "a"}, Config{Addr: "b", Services: []service.Registration{reg("chop"), reg("cook"), reg("serve")}})
	start := time.Now().Add(time.Hour)
	meta := func(task model.TaskID, slot int) proto.TaskMeta {
		at := start.Add(time.Duration(slot) * time.Minute)
		return proto.TaskMeta{Task: task, Mode: model.Conjunctive, Inputs: lbl("in"), Outputs: lbl("out"), Start: at, End: at.Add(time.Minute)}
	}
	chop, cook, serve := meta("chop", 0), meta("cook", 1), meta("serve", 2)
	if _, err := a.Call(context.Background(), "b", "rival", proto.CallForBidsBatch{Metas: []proto.TaskMeta{serve}}, time.Second); err != nil {
		t.Fatal(err)
	}

	reply, err := a.Call(context.Background(), "b", "wf",
		proto.CallForBidsBatch{Metas: []proto.TaskMeta{chop, cook, serve}, Sole: []model.TaskID{"cook", "serve"}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bids, ok := reply.(proto.BidBatch)
	if !ok || len(bids.Bids) != 2 || bids.Bids[0].Task != "chop" || bids.Bids[1].Task != "cook" {
		t.Fatalf("reply = %#v, want bids for chop and cook", reply)
	}
	if len(bids.Declines) != 1 || bids.Declines[0] != "serve" {
		t.Errorf("declines = %v, want serve alone", bids.Declines)
	}
	if _, ok := b.Schedule.Get("wf", "cook"); !ok {
		t.Error("cook rode on the call and was not committed")
	}
	if _, ok := b.Schedule.Get("wf", "chop"); ok {
		t.Error("chop was committed although the call only asked for a bid")
	}
	if holds, commits := b.Schedule.Holds(), len(b.Schedule.Commitments()); holds != 2 || commits != 1 {
		t.Errorf("%d holds, %d commitments; want chop's and the rival's holds and cook's commitment", holds, commits)
	}
	if runs, _ := b.Exec.Residue(); runs != 1 {
		t.Errorf("%d runs registered, want cook's alone", runs)
	}
	// An Award for the held task completes the ordinary way.
	reply, err = a.Call(context.Background(), "b", "wf", proto.Award{Meta: chop}, time.Second)
	if ack, ok := reply.(proto.AwardAck); err != nil || !ok || len(ack.Verdicts) != 1 || !ack.Verdicts[0].OK {
		t.Fatalf("award of chop: reply %#v, err %v", reply, err)
	}
}

func TestCallForBidsDecline(t *testing.T) {
	a, _ := pair(t, Config{Addr: "a"}, Config{Addr: "b"})
	meta := proto.TaskMeta{
		Task: "cook", Mode: model.Conjunctive,
		Inputs: lbl("in"), Outputs: lbl("out"),
		Start: time.Now().Add(time.Hour), End: time.Now().Add(2 * time.Hour),
	}
	reply, err := a.Call(context.Background(), "b", "wf", proto.CallForBidsBatch{Metas: []proto.TaskMeta{meta}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bids, ok := reply.(proto.BidBatch); !ok || len(bids.Bids) != 0 || len(bids.Declines) != 1 || bids.Declines[0] != "cook" {
		t.Fatalf("reply = %#v, want a decline of cook", reply)
	}
}

// TestHoldExpiryTimerReleasesSlot: a bid nobody awards holds its slot for
// the bid window and not after it.
func TestHoldExpiryTimerReleasesSlot(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC))
	a, b := pair(t,
		Config{Addr: "a", Clock: sim},
		Config{Addr: "b", Clock: sim, Services: []service.Registration{
			{Descriptor: service.Descriptor{Task: "cook", Specialization: 0.5}},
		}},
	)
	meta := proto.TaskMeta{
		Task: "cook", Mode: model.Conjunctive,
		Inputs: lbl("in"), Outputs: lbl("out"),
		Start: sim.Now().Add(time.Hour), End: sim.Now().Add(2 * time.Hour),
	}
	if _, err := a.Call(context.Background(), "b", "wf", proto.CallForBidsBatch{Metas: []proto.TaskMeta{meta}}, time.Second); err != nil {
		t.Fatal(err)
	}
	if b.Schedule.Holds() != 1 {
		t.Fatalf("Holds = %d after bid", b.Schedule.Holds())
	}
	sim.Advance(auction.DefaultBidWindow - time.Millisecond)
	if b.Schedule.Holds() != 1 {
		t.Fatalf("Holds = %d inside the bid window", b.Schedule.Holds())
	}
	sim.Advance(time.Second)
	if b.Schedule.Holds() != 0 {
		t.Fatal("hold outlived its bid window")
	}
}

// TestOneSweepTimerPerHost: however many bids, awards and lease refreshes
// a host serves, it keeps exactly one expiry timer — armed at the earliest
// deadline on its calendar, re-armed by the sweep itself — and none once
// the calendar is empty.
func TestOneSweepTimerPerHost(t *testing.T) {
	const awards, refreshes = 6, 4
	sim := clock.NewSim(time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC))
	var regs []service.Registration
	for i := 0; i < awards; i++ {
		regs = append(regs, service.Registration{
			Descriptor: service.Descriptor{Task: model.TaskID(fmt.Sprintf("t%d", i)), Specialization: 0.5},
		})
	}
	a, b := pair(t,
		Config{Addr: "a", Clock: sim},
		Config{Addr: "b", Clock: sim, Services: regs},
	)
	call := func(wf string, body proto.Body) proto.Body {
		t.Helper()
		reply, err := a.Call(context.Background(), "b", wf, body, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	// pending is the timers left on the clock two seconds on. An answered
	// Call stops its reply bound as it returns, so they are the host's own.
	pending := func() int {
		sim.Advance(2 * time.Second)
		return sim.PendingWaiters()
	}
	for i := 0; i < awards; i++ {
		wf, start := fmt.Sprintf("wf-%d", i), sim.Now().Add(time.Duration(i+1)*time.Hour)
		meta := proto.TaskMeta{
			Task: model.TaskID(fmt.Sprintf("t%d", i)), Mode: model.Conjunctive,
			Inputs: lbl("in"), Outputs: lbl("out"), Start: start, End: start.Add(time.Minute),
		}
		if bids := call(wf, proto.CallForBidsBatch{Metas: []proto.TaskMeta{meta}}).(proto.BidBatch); len(bids.Bids) != 1 {
			t.Fatalf("workflow %d: reply %+v, want one bid", i, bids)
		}
		if ack := call(wf, proto.Award{Meta: meta}).(proto.AwardAck); len(ack.Verdicts) != 1 || !ack.Verdicts[0].OK {
			t.Fatalf("workflow %d: award refused: %+v", i, ack.Verdicts)
		}
	}
	if got := pending(); got != 1 {
		t.Fatalf("%d timers pending after %d awards, want the one sweep timer", got, awards)
	}
	for i := 0; i < refreshes; i++ {
		sim.Advance(30 * time.Second)
		task := model.TaskID(fmt.Sprintf("t%d", i))
		if ack := call(fmt.Sprintf("wf-%d", i), proto.LeaseRefresh{Tasks: []model.TaskID{task}}).(proto.LeaseRefreshAck); len(ack.Missing) != 0 {
			t.Fatalf("refresh %d: missing %v", i, ack.Missing)
		}
	}
	// The bid windows have closed by now and the sweep has moved on to the
	// earliest lease, by itself.
	if got, held := pending(), len(b.Schedule.Commitments()); got != 1 || held != awards {
		t.Fatalf("%d timers pending over %d commitments after %d refreshes, want 1 over %d", got, held, refreshes, awards)
	}
	// Nobody refreshes or releases any more: the leases lapse — the
	// refreshed ones last — and the sweep goes quiet with the calendar.
	sim.Advance(auction.DefaultCommitLease + time.Minute)
	if got, held, runs := sim.PendingWaiters(), len(b.Schedule.Commitments()), b.Exec.Pending(); got != 0 || held != 0 || runs != 0 {
		t.Fatalf("after the lease horizon: %d timers, %d commitments, %d runs; want none", got, held, runs)
	}
}

func TestCallTimeout(t *testing.T) {
	a, _ := pair(t, Config{Addr: "a"}, Config{Addr: "b"})
	_, err := a.Call(context.Background(), "ghost", "wf", proto.FragmentQuery{Labels: lbl("x")}, 30*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
}

// TestCallTimeoutOnSimClock is TestCallTimeout on the simulated clock: the
// call to a silent peer keeps its reply bound armed until the clock reaches
// it, and fails with a timeout then, not before.
func TestCallTimeoutOnSimClock(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC))
	a, _ := pair(t, Config{Addr: "a", Clock: sim}, Config{Addr: "b", Clock: sim})
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), "ghost", "wf", proto.FragmentQuery{Labels: lbl("x")}, time.Second)
		done <- err
	}()
	for deadline := time.Now().Add(time.Second); sim.PendingWaiters() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the call never armed its reply bound")
		}
	}
	sim.Advance(time.Second - time.Millisecond)
	if n := sim.PendingWaiters(); n != 1 || len(done) != 0 {
		t.Fatalf("a millisecond short of the bound: %d timers, %d results; want the bound armed and no result", n, len(done))
	}
	sim.Advance(time.Millisecond)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("err = %v, want timeout", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the call outlived its bound")
	}
}

// TestAnsweredCallLeavesNoTimer: a call stops its reply bound as it
// returns, so answered calls leave nothing on the clock to wait out.
func TestAnsweredCallLeavesNoTimer(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC))
	a, _ := pair(t, Config{Addr: "a", Clock: sim}, Config{Addr: "b", Clock: sim})
	for i := 0; i < 10; i++ {
		if _, err := a.Call(context.Background(), "b", "wf", proto.FeasibilityQuery{Tasks: []model.TaskID{"cook"}}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n := sim.PendingWaiters(); n != 0 {
		t.Fatalf("%d timers pending after 10 answered calls, want none", n)
	}
}

// echoPeer is a bare endpoint that answers each FeasibilityQuery with its
// own tasks as Capable or, while hold is set, passes the request to held to
// be answered late.
type echoPeer struct {
	ep   transport.Endpoint
	hold atomic.Bool
	held chan proto.Envelope
}

func (p *echoPeer) answer(req proto.Envelope) {
	q := req.Body.(proto.FeasibilityQuery)
	_ = p.ep.Send(context.Background(), req.From, proto.Envelope{ReqID: req.ReqID, Workflow: req.Workflow, Body: proto.FeasibilityReply{Capable: q.Tasks}})
}

// echoPair attaches host a and an echoPeer p to a fresh network.
func echoPair(t *testing.T) (*Host, *echoPeer) {
	t.Helper()
	net := inmem.NewNetwork()
	t.Cleanup(func() { _ = net.Close() })
	a, err := New(Config{Addr: "a"})
	if err != nil {
		t.Fatal(err)
	}
	epA, err := net.Endpoint("a", a.Handle)
	if err != nil {
		t.Fatal(err)
	}
	a.Attach(epA)
	t.Cleanup(func() { _ = a.Close() })
	p := &echoPeer{held: make(chan proto.Envelope, 1)}
	p.ep, err = net.Endpoint("p", func(req proto.Envelope) {
		if p.hold.Load() {
			p.held <- req
			return
		}
		p.answer(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, p
}

// ask asks p about task i alone and reports whether the reply answered
// that question.
func ask(ctx context.Context, a *Host, i int, timeout time.Duration) (own bool, err error) {
	task := model.TaskID(fmt.Sprintf("t%d", i))
	reply, err := a.Call(ctx, "p", "wf", proto.FeasibilityQuery{Tasks: []model.TaskID{task}}, timeout)
	if err != nil {
		return false, err
	}
	fr, ok := reply.(proto.FeasibilityReply)
	return ok && len(fr.Capable) == 1 && fr.Capable[0] == task, nil
}

// TestRecycledCallsGetTheirOwnReplies: call objects are recycled, and
// however a call ends, no later call hears its reply. A call that timed
// out, or that Close interrupted, stays off the free list; one cancelled
// through its ctx goes back on it. Each one's reply then lands late, and
// fresh calls hear their own (after Close, they fail at once). Last, 8
// goroutines make 200 calls each, with bounds near the round trip and
// random cancellation: every reply answers its own request, and no call
// times out before its bound.
func TestRecycledCallsGetTheirOwnReplies(t *testing.T) {
	free := func(a *Host) int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.calls)
	}
	fresh := func(t *testing.T, a *Host) {
		t.Helper()
		for i := 100; i < 103; i++ {
			if own, err := ask(context.Background(), a, i, time.Second); err != nil || !own {
				t.Fatalf("fresh call %d: own reply %v, err %v", i, own, err)
			}
		}
	}
	// interrupt starts a call that p holds, ends it with end once p holds
	// it, and returns the held request and the call's error.
	interrupt := func(ctx context.Context, a *Host, p *echoPeer, timeout time.Duration, end func()) (proto.Envelope, error) {
		p.hold.Store(true)
		done := make(chan error, 1)
		go func() {
			_, err := ask(ctx, a, 1, timeout)
			done <- err
		}()
		req := <-p.held
		p.hold.Store(false)
		end()
		return req, <-done
	}

	t.Run("timed out", func(t *testing.T) {
		a, p := echoPair(t)
		fresh(t, a)
		req, err := interrupt(context.Background(), a, p, 20*time.Millisecond, func() {})
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("err = %v, want timeout", err)
		}
		if n := free(a); n != 0 {
			t.Fatalf("%d calls on the free list, want none: a timed-out call stays off it", n)
		}
		p.answer(req)
		fresh(t, a)
	})
	t.Run("cancelled", func(t *testing.T) {
		a, p := echoPair(t)
		fresh(t, a)
		ctx, cancel := context.WithCancel(context.Background())
		req, err := interrupt(ctx, a, p, time.Minute, cancel)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := free(a); n != 1 {
			t.Fatalf("%d calls on the free list, want the cancelled one back", n)
		}
		p.answer(req)
		fresh(t, a)
	})
	t.Run("closed", func(t *testing.T) {
		a, p := echoPair(t)
		fresh(t, a)
		req, err := interrupt(context.Background(), a, p, time.Minute, func() { _ = a.Close() })
		if err == nil || !strings.Contains(err.Error(), "closed while calling") {
			t.Fatalf("err = %v, want the call closed", err)
		}
		if n := free(a); n != 0 {
			t.Fatalf("%d calls on the free list, want none: a closed call stays off it", n)
		}
		p.answer(req)
		if _, err := ask(context.Background(), a, 100, time.Second); err == nil {
			t.Fatal("a call after Close succeeded")
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		a, _ := echoPair(t)
		const goroutines, calls = 8, 200
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for k := 0; k < calls; k++ {
					i := g*calls + k
					patience := time.Hour
					if rng.Intn(2) == 0 {
						patience = time.Duration(rng.Intn(500)) * time.Microsecond
					}
					ctx, cancel := context.WithTimeout(context.Background(), patience)
					timeout := time.Minute
					if rng.Intn(4) != 0 {
						timeout = time.Duration(10+rng.Intn(500)) * time.Microsecond
					}
					start := time.Now()
					own, err := ask(ctx, a, i, timeout)
					elapsed := time.Since(start)
					switch {
					case err == nil && !own:
						t.Errorf("call %d heard another call's reply", i)
					case err != nil && ctx.Err() == nil && (!strings.Contains(err.Error(), "timed out") || elapsed < timeout):
						t.Errorf("call %d failed after %v of its %v bound: %v", i, elapsed, timeout, err)
					}
					cancel()
				}
			}()
		}
		wg.Wait()
	})
}

// TestCallRoundTripAllocBound pins what the plumbing of one round trip
// between two hosts on inmem allocates, both sides together. The query is
// empty, so no body field is decoded; what is left is each side's decoded
// strings and boxed body, the boxed reply, and the reply bound's timer. 14
// at the parent of this bound (17 with one task in the query, 9 now), when
// every call made its channel and timer, every dispatch its session, queue
// and worker closure, and every frame its copy and mailbox slot.
func TestCallRoundTripAllocBound(t *testing.T) {
	a, _ := pair(t, Config{Addr: "a"}, Config{Addr: "b"})
	var q proto.Body = proto.FeasibilityQuery{}
	testutil.AllocBound(t, 6, func() {
		if _, err := a.Call(context.Background(), "b", "wf", q, time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCallSelf(t *testing.T) {
	a, _ := pair(t,
		Config{Addr: "a", Fragments: []*model.Fragment{mkFrag(t, "own", "x", "y")}},
		Config{Addr: "b"},
	)
	reply, err := a.Call(context.Background(), "a", "wf", proto.FragmentQuery{Labels: lbl("x")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fr := reply.(proto.FragmentReply); len(fr.Fragments) != 1 {
		t.Fatalf("self-call reply = %#v", fr)
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	a, _ := pair(t, Config{Addr: "a"}, Config{Addr: "b"})
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), "ghost", "wf", proto.FragmentQuery{}, time.Minute)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call succeeded after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("pending call never failed")
	}
	// Calls and sends after close error out.
	if _, err := a.Call(context.Background(), "b", "wf", proto.FragmentQuery{}, time.Second); err == nil {
		t.Error("Call after Close succeeded")
	}
	if err := a.Send(context.Background(), "b", "wf", proto.Cancel{}); err == nil {
		t.Error("Send after Close succeeded")
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestMembersDefaultsToSelf(t *testing.T) {
	h, err := New(Config{Addr: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	ms := h.Members()
	if len(ms) != 1 || ms[0] != "solo" {
		t.Errorf("Members = %v", ms)
	}
	if h.Self() != "solo" {
		t.Errorf("Self = %v", h.Self())
	}
	if h.Clock() == nil {
		t.Error("Clock is nil")
	}
}

// TestMembersCannotBeWrittenThrough: every caller shares the host's member
// slice, so appending to what Members returns must copy — never write into
// spare capacity another caller's append also lands in. Seventeen members
// are copied into an array with room for an eighteenth.
func TestMembersCannotBeWrittenThrough(t *testing.T) {
	h, err := New(Config{Addr: "m00"})
	if err != nil {
		t.Fatal(err)
	}
	members := make([]proto.Addr, 17)
	for i := range members {
		members[i] = proto.Addr(fmt.Sprintf("m%02d", i))
	}
	h.SetMembers(members)
	a := append(h.Members(), "a")
	b := append(h.Members(), "b")
	if a[17] != "a" || b[17] != "b" {
		t.Errorf("appends wrote through: %v then %v", a[17], b[17])
	}
	if got := h.Members(); !reflect.DeepEqual(got, members) {
		t.Errorf("Members = %v after appends, want %v", got, members)
	}
	var wg sync.WaitGroup
	for _, extra := range []proto.Addr{"x", "y"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				if ms := append(h.Members(), extra); ms[17] != extra {
					t.Errorf("concurrent append of %v read %v", extra, ms[17])
				}
			}
		}()
	}
	wg.Wait()
}

func TestUnattachedHostErrors(t *testing.T) {
	h, err := New(Config{Addr: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Call(context.Background(), "x", "wf", proto.FragmentQuery{}, time.Second); err == nil {
		t.Error("Call on unattached host succeeded")
	}
	if err := h.Send(context.Background(), "x", "wf", proto.Cancel{}); err == nil {
		t.Error("Send on unattached host succeeded")
	}
	if err := h.Close(); err != nil {
		t.Errorf("Close unattached: %v", err)
	}
}

func TestStrayReplyIgnored(t *testing.T) {
	a, b := pair(t, Config{Addr: "a"}, Config{Addr: "b"})
	// b sends an uncorrelated reply; a must not crash or route it.
	if err := b.Send(context.Background(), "a", "wf", proto.BidBatch{Declines: []model.TaskID{"t"}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	// A real call still works afterwards.
	if _, err := a.Call(context.Background(), "b", "wf", proto.FeasibilityQuery{}, time.Second); err != nil {
		t.Fatal(err)
	}
}

// --- Dispatcher tests ---

// TestDispatcherPerWorkflowFIFO: envelopes of one workflow are processed
// strictly in arrival order even when many workers are available.
func TestDispatcherPerWorkflowFIFO(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	d := newDispatcher(func(env proto.Envelope) {
		mu.Lock()
		got = append(got, env.ReqID)
		mu.Unlock()
	}, 8)
	const n = 200
	for i := 1; i <= n; i++ {
		d.enqueue(proto.Envelope{Workflow: "wf", ReqID: uint64(i)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := len(got) == n
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d envelopes processed", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("envelope %d has ReqID %d: per-workflow FIFO violated", i, id)
		}
	}
	if d.ActiveSessions() != 0 {
		t.Errorf("ActiveSessions = %d after drain", d.ActiveSessions())
	}
}

// TestDispatcherCrossWorkflowConcurrency: a blocked session must not
// stall another workflow's traffic — the property the single-threaded
// Handle loop lacked.
func TestDispatcherCrossWorkflowConcurrency(t *testing.T) {
	release := make(chan struct{})
	fastDone := make(chan struct{})
	d := newDispatcher(func(env proto.Envelope) {
		switch env.Workflow {
		case "slow":
			<-release
		case "fast":
			close(fastDone)
		}
	}, 4)
	d.enqueue(proto.Envelope{Workflow: "slow"})
	d.enqueue(proto.Envelope{Workflow: "fast"})
	select {
	case <-fastDone:
	case <-time.After(2 * time.Second):
		t.Fatal("fast workflow stalled behind the blocked slow workflow")
	}
	close(release)
}

// TestDispatcherWorkerPoolBound: concurrent in-flight handlers never
// exceed the configured pool size, and all sessions are eventually
// served as workers free up.
func TestDispatcherWorkerPoolBound(t *testing.T) {
	const workers = 3
	const sessions = 12
	var inFlight, peak, handled atomic.Int64
	d := newDispatcher(func(env proto.Envelope) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		handled.Add(1)
	}, workers)
	for i := 0; i < sessions; i++ {
		d.enqueue(proto.Envelope{Workflow: fmt.Sprintf("wf-%d", i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for handled.Load() != sessions {
		if time.Now().After(deadline) {
			t.Fatalf("handled %d of %d sessions", handled.Load(), sessions)
		}
		time.Sleep(time.Millisecond)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

// TestDispatcherAllocFree: in steady state an envelope goes from enqueue
// to process allocating nothing — the session comes off the free list, its
// queue is last time's batch, and the worker starts from a bound method
// value. At the parent of this bound each cost a session, its queue and a
// worker closure (3).
func TestDispatcherAllocFree(t *testing.T) {
	done := make(chan struct{})
	d := newDispatcher(func(proto.Envelope) { done <- struct{}{} }, 4)
	env := proto.Envelope{Workflow: "wf", Body: proto.Cancel{}}
	testutil.AllocBound(t, 0, func() {
		d.enqueue(env)
		<-done
	})
}

// TestDispatcherCloseDropsQueued: after close, queued and new envelopes
// are dropped and workers wind down.
func TestDispatcherCloseDropsQueued(t *testing.T) {
	var handled atomic.Int64
	block := make(chan struct{})
	d := newDispatcher(func(env proto.Envelope) {
		handled.Add(1)
		<-block
	}, 1)
	d.enqueue(proto.Envelope{Workflow: "a"}) // occupies the only worker
	deadline := time.Now().Add(time.Second)
	for handled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.enqueue(proto.Envelope{Workflow: "b"}) // queued behind the pool
	d.close()
	d.enqueue(proto.Envelope{Workflow: "c"}) // refused outright
	close(block)
	time.Sleep(10 * time.Millisecond)
	if n := handled.Load(); n != 1 {
		t.Errorf("handled = %d, want only the pre-close in-flight envelope", n)
	}
}
