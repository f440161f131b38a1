package auction

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/space"
	"openwf/internal/testutil"
)

var t0 = time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)

func meta(task string) proto.TaskMeta {
	return proto.TaskMeta{
		Task:  model.TaskID(task),
		Mode:  model.Conjunctive,
		Start: t0.Add(time.Hour),
		End:   t0.Add(2 * time.Hour),
	}
}

func bid(task string, services int, spec float64, deadline time.Time) proto.Bid {
	return proto.Bid{
		Task: model.TaskID(task), ServicesOffered: services,
		Specialization: spec, Deadline: deadline,
	}
}

func members(ids ...string) []proto.Addr {
	out := make([]proto.Addr, len(ids))
	for i, id := range ids {
		out[i] = proto.Addr(id)
	}
	return out
}

// answer feeds the auctioneer member from's answer, bidding bids and
// declining every other task.
func answer(a *Auctioneer, from string, bids ...proto.Bid) []Decision {
	return a.HandleBidBatch(proto.Addr(from), proto.BidBatch{Bids: bids}, time.Time{})
}

// TestAuctioneerManyTasks runs a full auction over a few hundred tasks
// and three members, covering the post-processing the engine does after
// bidding (the winners map, failed set, decision stream) at the scale
// where an accidentally quadratic sweep would show. Every task must be
// decided at the last answer, in task order, won by the member offering
// the fewest services, with the other two as its losers.
func TestAuctioneerManyTasks(t *testing.T) {
	const n = 300
	ms := members("h1", "h2", "h3")
	// h2 offers the fewest services: it must win every task.
	services := map[proto.Addr]int{"h1": 5, "h2": 1, "h3": 3}
	metas := make([]proto.TaskMeta, n)
	for i := range metas {
		metas[i] = meta(fmt.Sprintf("t%03d", n-1-i))
	}
	a, err := NewAuctioneer(ms, metas)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.StartBatched()); got != len(ms) {
		t.Fatalf("StartBatched emitted %d messages, want %d", got, len(ms))
	}

	deadline := t0.Add(time.Hour)
	var decisions []Decision
	for i, m := range ms {
		bids := make([]proto.Bid, n)
		for j := range metas {
			bids[j] = bid(string(metas[j].Task), services[m], 0.5, deadline)
		}
		if decisions = answer(a, string(m), bids...); i < len(ms)-1 && decisions != nil {
			t.Fatalf("decided before %s answered: %v", ms[len(ms)-1], decisions)
		}
	}
	if !a.Done() {
		t.Fatal("auction not done")
	}
	if len(decisions) != n {
		t.Fatalf("decisions = %d, want %d", len(decisions), n)
	}
	for i, d := range decisions {
		if want := model.TaskID(fmt.Sprintf("t%03d", i)); d.Task != want || d.Meta.Task != want {
			t.Fatalf("decision %d is for %q, want %q", i, d.Task, want)
		}
		if d.Winner != "h2" || !slices.Equal(d.Losers, members("h1", "h3")) {
			t.Fatalf("decision %+v, want winner h2, losers [h1 h3]", d)
		}
	}
}

func TestNewAuctioneerValidation(t *testing.T) {
	if _, err := NewAuctioneer(nil, []proto.TaskMeta{meta("t")}); err == nil {
		t.Error("no members accepted")
	}
	if _, err := NewAuctioneer(members("a"), []proto.TaskMeta{meta("t"), meta("t")}); err == nil {
		t.Error("duplicate task accepted")
	}
}

func TestStartEmitsPairwiseCFBs(t *testing.T) {
	a, err := NewAuctioneer(members("h1", "h2", "h3"), []proto.TaskMeta{meta("t1"), meta("t2")})
	if err != nil {
		t.Fatal(err)
	}
	out := a.StartBatched()
	if len(out) != 3 {
		t.Fatalf("StartBatched emitted %d messages, want 3", len(out))
	}
	// Pairwise: one call per member, each soliciting both tasks.
	for i, o := range out {
		if want := proto.Addr(fmt.Sprintf("h%d", i+1)); o.To != want {
			t.Errorf("message %d goes to %q, want %q", i, o.To, want)
		}
		if b, ok := o.Body.(proto.CallForBidsBatch); !ok || len(b.Metas) != 2 {
			t.Errorf("body = %#v, want a call for bids on both tasks", o.Body)
		}
	}
}

func TestDecideWhenAllResponded(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	deadline := t0.Add(time.Minute)
	if ds := answer(a, "h1", bid("t", 3, 0.5, deadline)); ds != nil {
		t.Fatalf("decided before all responded: %v", ds)
	}
	if a.Done() {
		t.Fatal("auction done before h2 answered")
	}
	ds := a.HandleBidBatch("h2", proto.BidBatch{Declines: []model.TaskID{"t"}}, time.Time{})
	if len(ds) != 1 || ds[0].Winner != "h1" || len(ds[0].Losers) != 0 {
		t.Fatalf("decisions = %+v", ds)
	}
	if !a.Done() {
		t.Error("auction not done after decision")
	}
}

// TestAnswerWithoutATaskStillDecides: an answer that neither bids for a
// task nor declines it declines it all the same, so the last answer
// decides every task.
func TestAnswerWithoutATaskStillDecides(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	answer(a, "h1", bid("t", 3, 0.5, t0.Add(time.Minute)))
	ds := a.HandleBidBatch("h2", proto.BidBatch{}, time.Time{})
	if len(ds) != 1 || ds[0].Task != "t" || ds[0].Winner != "h1" {
		t.Fatalf("decisions = %+v, want t decided for h1", ds)
	}
	if !a.Done() {
		t.Error("auction not done after every member answered")
	}
}

func TestSelectionPrefersFewerServices(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2", "h3"), []proto.TaskMeta{meta("t")})
	deadline := t0.Add(time.Minute)
	answer(a, "h1", bid("t", 5, 0.9, deadline))
	answer(a, "h2", bid("t", 2, 0.1, deadline))
	ds := answer(a, "h3", bid("t", 4, 0.9, deadline))
	if len(ds) != 1 || ds[0].Winner != "h2" || !slices.Equal(ds[0].Losers, members("h1", "h3")) {
		t.Fatalf("decisions = %+v, want h2 (fewest services) over [h1 h3]", ds)
	}
}

func TestSelectionTieBreaksOnSpecialization(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	deadline := t0.Add(time.Minute)
	answer(a, "h1", bid("t", 3, 0.3, deadline))
	ds := answer(a, "h2", bid("t", 3, 0.8, deadline))
	if len(ds) != 1 || ds[0].Winner != "h2" {
		t.Fatalf("winner = %+v, want h2 (higher specialization)", ds)
	}
}

func TestSelectionTieBreaksOnAddress(t *testing.T) {
	a, _ := NewAuctioneer(members("h2", "h1"), []proto.TaskMeta{meta("t")})
	deadline := t0.Add(time.Minute)
	answer(a, "h2", bid("t", 3, 0.5, deadline))
	ds := answer(a, "h1", bid("t", 3, 0.5, deadline))
	if len(ds) != 1 || ds[0].Winner != "h1" {
		t.Fatalf("winner = %+v, want h1 (smaller address)", ds)
	}
}

func TestAllDeclinedFails(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	decline := proto.BidBatch{Declines: []model.TaskID{"t"}}
	a.HandleBidBatch("h1", decline, time.Time{})
	ds := a.HandleBidBatch("h2", decline, time.Time{})
	if len(ds) != 1 || !ds[0].Failed() || len(ds[0].Losers) != 0 {
		t.Fatalf("decisions = %+v, want failed", ds)
	}
	if !a.Done() {
		t.Error("auction not done after the failed decision")
	}
}

// TestDeadlineForcesDecision: no deadline forces a decision. h1's bid
// has lapsed by the time it is recorded, and the task still waits for h2,
// whose failed call the engine counts as declining every task; that last
// answer decides it on the bid in hand. A bid may still arrive until the
// last member has answered, and a lapsed winner's award is refused and
// retried like any other.
func TestDeadlineForcesDecision(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	if ds := a.HandleBidBatch("h1", proto.BidBatch{Bids: []proto.Bid{bid("t", 3, 0.5, t0)}}, t0.Add(time.Minute)); ds != nil {
		t.Fatalf("decided before h2 answered: %+v", ds)
	}
	ds := a.HandleBidBatch("h2", proto.BidBatch{Declines: []model.TaskID{"t", "not-auctioned"}}, t0.Add(time.Minute))
	if len(ds) != 1 || ds[0].Winner != "h1" {
		t.Fatalf("decisions = %+v", ds)
	}
	if !a.Done() {
		t.Error("auction not done after the silent member declined")
	}
}

// TestLateBidIgnoredAfterDecision: a member answers once. A second answer
// from it, or an answer from a host that was not asked, changes nothing.
func TestLateBidIgnoredAfterDecision(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2", "h3"), []proto.TaskMeta{meta("t")})
	answer(a, "h1", bid("t", 3, 0.5, t0.Add(time.Minute)))
	answer(a, "h2")
	if ds := answer(a, "h2", bid("t", 1, 1, t0.Add(time.Minute))); ds != nil {
		t.Errorf("second answer produced decisions: %v", ds)
	}
	if ds := answer(a, "stranger", bid("t", 1, 1, t0.Add(time.Minute))); ds != nil || a.Done() {
		t.Errorf("a non-member's answer produced decisions %v or ended the auction", ds)
	}
	ds := answer(a, "h3")
	if len(ds) != 1 || ds[0].Winner != "h1" || len(ds[0].Losers) != 0 {
		t.Fatalf("decisions = %+v, want h1 alone as bidder", ds)
	}
	if ds := answer(a, "h3", bid("t", 1, 1, t0.Add(time.Minute))); ds != nil {
		t.Errorf("answer after the decision produced decisions: %v", ds)
	}
}

func TestUnknownTaskMessagesIgnored(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	if ds := answer(a, "h1", bid("zz", 1, 1, t0.Add(time.Minute))); ds != nil {
		t.Errorf("bid for unknown task decided: %v", ds)
	}
	ds := a.HandleBidBatch("h2", proto.BidBatch{Declines: []model.TaskID{"zz"}}, time.Time{})
	if len(ds) != 1 || ds[0].Task != "t" || !ds[0].Failed() {
		t.Errorf("decisions = %+v, want t alone, failed", ds)
	}
}

func TestMultiTaskIndependence(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t2"), meta("t1")})
	dl := t0.Add(time.Minute)
	answer(a, "h1", bid("t1", 1, 0.5, dl))
	ds := answer(a, "h2", bid("t1", 2, 0.5, dl), bid("t2", 2, 0.5, dl))
	if !a.Done() {
		t.Fatal("not done")
	}
	if len(ds) != 2 || ds[0].Task != "t1" || ds[0].Winner != "h1" || !slices.Equal(ds[0].Losers, members("h2")) ||
		ds[1].Task != "t2" || ds[1].Winner != "h2" || len(ds[1].Losers) != 0 {
		t.Errorf("decisions = %+v, want t1 → h1 over [h2], t2 → h2 alone", ds)
	}
}

// --- Participant tests ---

func participant(prefs schedule.Preferences, regs ...service.Registration) (*Participant, *clock.Sim, *schedule.Manager) {
	sim := clock.NewSim(t0)
	services := service.NewManager(sim)
	for _, r := range regs {
		if err := services.Register(r); err != nil {
			panic(err)
		}
	}
	sched := schedule.NewManager(sim, nil, prefs)
	return NewParticipant(sim, services, sched, 30*time.Second), sim, sched
}

// bidOne solicits one task with a one-meta call for bids and returns the
// firm bid, or ok=false when the participant declined the task.
func bidOne(t *testing.T, p *Participant, wf string, m proto.TaskMeta) (b proto.Bid, ok bool) {
	t.Helper()
	reply := p.HandleCallForBidsBatch(wf, proto.CallForBidsBatch{Metas: []proto.TaskMeta{m}})
	switch {
	case len(reply.Bids) == 1 && len(reply.Declines) == 0 && reply.Bids[0].Task == m.Task:
		return reply.Bids[0], true
	case len(reply.Bids) == 0 && len(reply.Declines) == 1 && reply.Declines[0] == m.Task:
		return proto.Bid{}, false
	}
	t.Fatalf("reply = %+v, want exactly one answer for %q", reply, m.Task)
	return proto.Bid{}, false
}

// heldBy counts the firm bids one workflow's session has outstanding: the
// calendar's holds are the participant's only record of them.
func heldBy(sched *schedule.Manager, wf string) int {
	n := 0
	for _, c := range sched.HeldTasks() {
		if c.Workflow == wf {
			n++
		}
	}
	return n
}

func sreg(task string, spec float64) service.Registration {
	return service.Registration{Descriptor: service.Descriptor{
		Task: model.TaskID(task), Specialization: spec,
	}}
}

func TestParticipantBidsWhenCapable(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("t", 0.7), sreg("u", 0.2))
	b, ok := bidOne(t, p, "wf", meta("t"))
	if !ok {
		t.Fatal("declined, want a bid")
	}
	if b.ServicesOffered != 2 || b.Specialization != 0.7 {
		t.Errorf("bid = %+v", b)
	}
	if !b.Deadline.Equal(t0.Add(30 * time.Second)) {
		t.Errorf("deadline = %v", b.Deadline)
	}
	if sched.Holds() != 1 {
		t.Errorf("holds = %d, firm bid must reserve the slot", sched.Holds())
	}
}

func TestParticipantDeclinesWithoutService(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{})
	if b, ok := bidOne(t, p, "wf", meta("t")); ok {
		t.Fatalf("response = %+v, want a decline", b)
	}
	if sched.Holds() != 0 {
		t.Error("decline left a hold")
	}
}

func TestParticipantDeclinesWhenUnwilling(t *testing.T) {
	p, _, _ := participant(schedule.Preferences{
		Willing: func(proto.TaskMeta) bool { return false },
	}, sreg("t", 0.5))
	if b, ok := bidOne(t, p, "wf", meta("t")); ok {
		t.Fatalf("response = %+v, want a decline", b)
	}
}

func TestParticipantRebidRefreshesDeadline(t *testing.T) {
	p, sim, sched := participant(schedule.Preferences{}, sreg("t", 0.5))
	if _, ok := bidOne(t, p, "wf", meta("t")); !ok {
		t.Fatal("first call declined")
	}
	sim.Advance(10 * time.Second)
	b, ok := bidOne(t, p, "wf", meta("t"))
	if !ok {
		t.Fatal("second call declined, want a refreshed bid")
	}
	if !b.Deadline.Equal(t0.Add(40 * time.Second)) {
		t.Errorf("refreshed deadline = %v", b.Deadline)
	}
	if sched.Holds() != 1 {
		t.Errorf("holds = %d", sched.Holds())
	}
}

func TestParticipantAwardCommits(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("t", 0.5))
	bidOne(t, p, "wf", meta("t"))
	c, ack := p.HandleAward("wf", proto.Award{Meta: meta("t")})
	if !ack.OK {
		t.Fatalf("award refused: %s", ack.Reason)
	}
	if c.Task != "t" {
		t.Errorf("commitment = %+v", c)
	}
	if sched.Holds() != 0 {
		t.Error("hold not converted")
	}
	if _, ok := sched.Get("wf", "t"); !ok {
		t.Error("commitment missing")
	}
}

func TestParticipantAwardWithoutServiceRefused(t *testing.T) {
	p, _, _ := participant(schedule.Preferences{})
	_, ack := p.HandleAward("wf", proto.Award{Meta: meta("t")})
	if ack.OK {
		t.Error("award accepted without a service")
	}
}

// TestParticipantRefusedAwardReleasesHold: the service is withdrawn
// between bid and award. The auctioneer sends no Cancel after a refusal,
// so the refusal itself must free the slot — a rival session's bid on the
// same window succeeds at once, not after the bid window lapses.
func TestParticipantRefusedAwardReleasesHold(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("t", 0.5), sreg("u", 0.5))
	if _, ok := bidOne(t, p, "wf", meta("t")); !ok {
		t.Fatal("bid declined")
	}
	p.services.Unregister("t")
	if _, ack := p.HandleAward("wf", proto.Award{Meta: meta("t")}); ack.OK {
		t.Fatal("award accepted for a withdrawn service")
	}
	if sched.Holds() != 0 {
		t.Fatalf("refused award left holds: %+v", sched.HeldTasks())
	}
	if _, err := sched.Hold("rival", meta("u"), t0.Add(time.Minute)); err != nil {
		t.Fatalf("rival workflow's hold on the same window: %v", err)
	}
}

// TestParticipantDeclineReleasesOwnHold: a workflow bids for a task, the
// service is withdrawn, and the same workflow's next call for bids — the
// replanning re-solicitation — declines the task. The decline frees the
// slot its first bid held, as a refused award does: no Cancel follows a
// decline.
func TestParticipantDeclineReleasesOwnHold(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("t", 0.5))
	if _, ok := bidOne(t, p, "wf", meta("t")); !ok {
		t.Fatal("bid declined")
	}
	p.services.Unregister("t")
	if _, ok := bidOne(t, p, "wf", meta("t")); ok {
		t.Fatal("bid for a withdrawn service")
	}
	if sched.Holds() != 0 {
		t.Fatalf("decline left holds: %+v", sched.HeldTasks())
	}
}

func TestParticipantAwardAfterExpiryRefused(t *testing.T) {
	// The hold expired before the award arrived: the slot already
	// returned to the pool, so the stale award is refused even though
	// the slot happens to still be free — never a silent commitment the
	// auctioneer cannot account for.
	p, sim, sched := participant(schedule.Preferences{}, sreg("t", 0.5))
	bidOne(t, p, "wf", meta("t"))
	sim.Advance(time.Minute)
	if sched.Expire(sim.Now()); sched.Holds() != 0 {
		t.Fatalf("holds after the bid window = %d", sched.Holds())
	}
	_, ack := p.HandleAward("wf", proto.Award{Meta: meta("t")})
	if ack.OK {
		t.Fatal("stale award accepted after the hold expired")
	}
	if !strings.Contains(ack.Reason, schedule.ErrNoHold.Error()) {
		t.Fatalf("refusal reason = %q, want it to name the dead hold", ack.Reason)
	}
	if _, ok := sched.Get("wf", "t"); ok {
		t.Error("refused award left a commitment")
	}
	if sched.Holds() != 0 {
		t.Error("stray hold")
	}
}

func TestParticipantAwardConflictRefused(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("t", 0.5), sreg("u", 0.5))
	// Another workflow already took the slot.
	if _, err := sched.Hold("other", meta("u"), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.CommitHeld("other", "u", time.Time{}); err != nil {
		t.Fatal(err)
	}
	_, ack := p.HandleAward("wf", proto.Award{Meta: meta("t")})
	if ack.OK {
		t.Error("conflicting award accepted")
	}
}

func TestParticipantCancel(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("t", 0.5))
	bidOne(t, p, "wf", meta("t"))
	if _, ack := p.HandleAward("wf", proto.Award{Meta: meta("t")}); !ack.OK {
		t.Fatal("award refused")
	}
	p.HandleCancel("wf", proto.Cancel{Tasks: []model.TaskID{"t"}})
	if _, ok := sched.Get("wf", "t"); ok {
		t.Error("cancel left the commitment")
	}
}

// TestParticipantCancelWithoutTaskEndsWorkflow: a Cancel naming no task is
// the initiator's end-of-workflow release — the workflow's commitment and
// its outstanding hold both go, another workflow's entries stay.
func TestParticipantCancelWithoutTaskEndsWorkflow(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("a", 0.5), sreg("b", 0.5), sreg("c", 0.5))
	a := metaAt("a", t0.Add(time.Hour), t0.Add(2*time.Hour))
	bidOne(t, p, "wf", a)
	if _, ack := p.HandleAward("wf", proto.Award{Meta: a}); !ack.OK {
		t.Fatal("award refused")
	}
	bidOne(t, p, "wf", metaAt("b", t0.Add(3*time.Hour), t0.Add(4*time.Hour)))
	bidOne(t, p, "other", metaAt("c", t0.Add(5*time.Hour), t0.Add(6*time.Hour)))
	p.HandleCancel("wf", proto.Cancel{})
	if _, ok := sched.Get("wf", "a"); ok || heldBy(sched, "wf") != 0 {
		t.Errorf("release left wf's commitment (%v) or %d of its holds", ok, heldBy(sched, "wf"))
	}
	if heldBy(sched, "other") != 1 {
		t.Errorf("release of wf took another workflow's hold")
	}
}

func TestParticipantLocatedServiceImposesLocation(t *testing.T) {
	p, _, _ := participant(schedule.Preferences{}, service.Registration{
		Descriptor: service.Descriptor{
			Task: "t", Specialization: 0.5,
			Location: &space.Point{X: 3, Y: 4},
		},
	})
	// Static host at origin cannot travel: the located service makes
	// the commitment infeasible → decline.
	if b, ok := bidOne(t, p, "wf", meta("t")); ok {
		t.Fatalf("response = %+v, want a decline (immobile host, remote service)", b)
	}
}

func TestParticipantBidWindowDefault(t *testing.T) {
	sim := clock.NewSim(t0)
	services := service.NewManager(sim)
	if err := services.Register(sreg("t", 0.5)); err != nil {
		t.Fatal(err)
	}
	p := NewParticipant(sim, services, schedule.NewManager(sim, nil, schedule.Preferences{}), 0)
	b, ok := bidOne(t, p, "wf", meta("t"))
	if !ok || !b.Deadline.Equal(t0.Add(DefaultBidWindow)) {
		t.Errorf("bid = %+v (bid %v), want a deadline one default window away", b, ok)
	}
}

// --- Per-session participant state ---

// metaAt builds task metadata with an explicit window, so concurrent
// sessions can be given overlapping or disjoint slots.
func metaAt(task string, start, end time.Time) proto.TaskMeta {
	return proto.TaskMeta{
		Task: model.TaskID(task), Mode: model.Conjunctive,
		Start: start, End: end,
	}
}

// TestParticipantSessionsAreIsolated: two workflows bid on disjoint
// slots; canceling or expiring one session's bids never touches the
// other's.
func TestParticipantSessionsAreIsolated(t *testing.T) {
	p, sim, sched := participant(schedule.Preferences{}, sreg("a", 0.5), sreg("b", 0.5))
	if _, ok := bidOne(t, p, "wf-1", metaAt("a", t0.Add(time.Hour), t0.Add(2*time.Hour))); !ok {
		t.Fatal("wf-1 bid refused")
	}
	if _, ok := bidOne(t, p, "wf-2", metaAt("b", t0.Add(3*time.Hour), t0.Add(4*time.Hour))); !ok {
		t.Fatal("wf-2 bid refused")
	}
	if heldBy(sched, "wf-1") != 1 || heldBy(sched, "wf-2") != 1 || sched.Holds() != 2 {
		t.Fatalf("session bids = %d/%d of %d holds", heldBy(sched, "wf-1"), heldBy(sched, "wf-2"), sched.Holds())
	}
	// Cancel wf-1's task: wf-2 untouched.
	p.HandleCancel("wf-1", proto.Cancel{Tasks: []model.TaskID{"a"}})
	if heldBy(sched, "wf-1") != 0 || heldBy(sched, "wf-2") != 1 || sched.Holds() != 1 {
		t.Fatalf("after cancel: wf-1=%d wf-2=%d holds=%d",
			heldBy(sched, "wf-1"), heldBy(sched, "wf-2"), sched.Holds())
	}
	// Expire past every deadline: wf-2's bid drains too.
	sim.Advance(time.Minute)
	if sched.Expire(sim.Now()); sched.Holds() != 0 {
		t.Fatalf("held = %+v after expiry", sched.HeldTasks())
	}
}

// TestParticipantSecondSessionCleanDecline: when an earlier session
// holds the slot, a later session's call for bids gets a decline and no
// session state — first-hold-wins surfaces as a clean refusal.
func TestParticipantSecondSessionCleanDecline(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("a", 0.5), sreg("b", 0.5))
	if _, ok := bidOne(t, p, "wf-1", metaAt("a", t0.Add(time.Hour), t0.Add(2*time.Hour))); !ok {
		t.Fatal("wf-1 bid refused")
	}
	if b, ok := bidOne(t, p, "wf-2", metaAt("b", t0.Add(90*time.Minute), t0.Add(3*time.Hour))); ok {
		t.Fatalf("overlapping second session got %+v, want a decline", b)
	}
	if heldBy(sched, "wf-2") != 0 {
		t.Errorf("declined session holds %d bids", heldBy(sched, "wf-2"))
	}
	if sched.Holds() != 1 {
		t.Errorf("holds = %d, want the first session's only", sched.Holds())
	}
}

// TestParticipantAwardPrunesSession: a converted award leaves the
// session only when other bids remain outstanding.
func TestParticipantAwardPrunesSession(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("a", 0.5), sreg("b", 0.5))
	bidOne(t, p, "wf", metaAt("a", t0.Add(time.Hour), t0.Add(2*time.Hour)))
	bidOne(t, p, "wf", metaAt("b", t0.Add(3*time.Hour), t0.Add(4*time.Hour)))
	if _, ack := p.HandleAward("wf", proto.Award{Meta: metaAt("a", t0.Add(time.Hour), t0.Add(2*time.Hour))}); !ack.OK {
		t.Fatalf("award refused: %+v", ack)
	}
	if heldBy(sched, "wf") != 1 {
		t.Fatalf("session holds %d bids after one award, want 1", heldBy(sched, "wf"))
	}
	if n := p.ReleaseSession("wf"); n != 1 {
		t.Fatalf("ReleaseSession released %d holds, want 1", n)
	}
	if sched.Holds() != 0 {
		t.Fatalf("held = %+v after release", sched.HeldTasks())
	}
}

// --- Batched call-for-bids (PR 5) ---

// TestStartBatchedOnePerMember: the batched protocol sends exactly one
// CallForBidsBatch per member, carrying every task in sorted order.
func TestStartBatchedOnePerMember(t *testing.T) {
	a, err := NewAuctioneer(members("h1", "h2", "h3"), []proto.TaskMeta{meta("t2"), meta("t1")})
	if err != nil {
		t.Fatal(err)
	}
	out := a.StartBatched()
	if len(out) != 3 {
		t.Fatalf("StartBatched emitted %d messages, want 3 (one per member)", len(out))
	}
	for i, o := range out {
		b, ok := o.Body.(proto.CallForBidsBatch)
		if !ok {
			t.Fatalf("body = %T", o.Body)
		}
		if len(b.Metas) != 2 || b.Metas[0].Task != "t1" || b.Metas[1].Task != "t2" {
			t.Fatalf("batch %d metas = %+v, want [t1 t2]", i, b.Metas)
		}
	}
	if out[0].To != "h1" || out[1].To != "h2" || out[2].To != "h3" {
		t.Errorf("recipients = %v %v %v", out[0].To, out[1].To, out[2].To)
	}
}

// capable task, an unknown task, and a task blocked by another session
// answers each per task — one bid, two declines, one hold.
func TestParticipantBatchedCallMixedCapability(t *testing.T) {
	p, _, sched := participant(schedule.Preferences{}, sreg("a", 0.7), sreg("b", 0.4))
	// Session wf-1 already owns b's window.
	if _, ok := bidOne(t, p, "wf-1", metaAt("b", t0.Add(time.Hour), t0.Add(2*time.Hour))); !ok {
		t.Fatal("setup bid declined")
	}
	reply := p.HandleCallForBidsBatch("wf-2", proto.CallForBidsBatch{Metas: []proto.TaskMeta{
		metaAt("a", t0.Add(3*time.Hour), t0.Add(4*time.Hour)), // capable, free window
		metaAt("b", t0.Add(time.Hour), t0.Add(2*time.Hour)),   // capable, slot busy
		metaAt("x", t0.Add(5*time.Hour), t0.Add(6*time.Hour)), // no service
	}})
	if len(reply.Bids) != 1 || reply.Bids[0].Task != "a" {
		t.Fatalf("bids = %+v, want one for a", reply.Bids)
	}
	if reply.Bids[0].ServicesOffered != 2 || reply.Bids[0].Specialization != 0.7 {
		t.Errorf("bid = %+v", reply.Bids[0])
	}
	if len(reply.Declines) != 2 {
		t.Fatalf("declines = %v, want [x b] in some order", reply.Declines)
	}
	if sched.Holds() != 2 { // wf-1's b + wf-2's a
		t.Errorf("holds = %d, want 2", sched.Holds())
	}
	if heldBy(sched, "wf-2") != 1 {
		t.Errorf("wf-2 holds %d bids, want 1", heldBy(sched, "wf-2"))
	}
}

// TestParticipantBatchedCallMatchesPerTask: for the same solicitation,
// the batched reply carries exactly the bids and declines the per-task
// sequence of one-task calls would produce, with the same schedule state
// afterwards.
func TestParticipantBatchedCallMatchesPerTask(t *testing.T) {
	metas := []proto.TaskMeta{
		metaAt("a", t0.Add(time.Hour), t0.Add(2*time.Hour)),
		metaAt("b", t0.Add(3*time.Hour), t0.Add(4*time.Hour)),
		metaAt("x", t0.Add(5*time.Hour), t0.Add(6*time.Hour)), // no service
	}
	regs := []service.Registration{sreg("a", 0.5), sreg("b", 0.5)}
	pb, _, schedBatch := participant(schedule.Preferences{}, regs...)
	reply := pb.HandleCallForBidsBatch("wf", proto.CallForBidsBatch{Metas: metas})

	pt, _, schedTask := participant(schedule.Preferences{}, regs...)
	var bids []proto.Bid
	var declines []model.TaskID
	for _, m := range metas {
		if b, ok := bidOne(t, pt, "wf", m); ok {
			bids = append(bids, b)
		} else {
			declines = append(declines, m.Task)
		}
	}
	if len(reply.Bids) != len(bids) || len(reply.Declines) != len(declines) {
		t.Fatalf("batched %d bids/%d declines vs per-task %d/%d",
			len(reply.Bids), len(reply.Declines), len(bids), len(declines))
	}
	for i := range bids {
		if reply.Bids[i].Task != bids[i].Task ||
			reply.Bids[i].ServicesOffered != bids[i].ServicesOffered ||
			reply.Bids[i].Specialization != bids[i].Specialization ||
			!reply.Bids[i].Deadline.Equal(bids[i].Deadline) {
			t.Fatalf("bid %d: batched %+v vs per-task %+v", i, reply.Bids[i], bids[i])
		}
	}
	if schedBatch.Holds() != schedTask.Holds() {
		t.Fatalf("holds: batched %d vs per-task %d", schedBatch.Holds(), schedTask.Holds())
	}
}

// TestParticipantBatchedRebidRefreshes: a re-solicited batch (engine
// replanning) refreshes the session's existing holds and bids again.
func TestParticipantBatchedRebidRefreshes(t *testing.T) {
	p, sim, sched := participant(schedule.Preferences{}, sreg("a", 0.5))
	metas := []proto.TaskMeta{metaAt("a", t0.Add(time.Hour), t0.Add(2*time.Hour))}
	first := p.HandleCallForBidsBatch("wf", proto.CallForBidsBatch{Metas: metas})
	if len(first.Bids) != 1 {
		t.Fatalf("first reply = %+v", first)
	}
	sim.Advance(10 * time.Second)
	second := p.HandleCallForBidsBatch("wf", proto.CallForBidsBatch{Metas: metas})
	if len(second.Bids) != 1 {
		t.Fatalf("second reply = %+v, want a refreshed bid", second)
	}
	if !second.Bids[0].Deadline.Equal(t0.Add(40 * time.Second)) {
		t.Errorf("refreshed deadline = %v", second.Bids[0].Deadline)
	}
	if sched.Holds() != 1 {
		t.Errorf("holds = %d, want 1", sched.Holds())
	}
}

// TestAllBusyBatchAllocBound pins what a participant's answer costs when
// a rival session holds every slot it is asked for: the reply's declines,
// once. The batch goes to the calendar as it came, the calendar's results
// sit in an array on the participant's stack, and each busy decline stays
// a value there. 8 while the calendar made the results slice and boxed
// every busy decline; 10 while the participant copied every batch into
// working lists of capable tasks and their services.
func TestAllBusyBatchAllocBound(t *testing.T) {
	var regs []service.Registration
	var metas []proto.TaskMeta
	for i := 0; i < 6; i++ {
		regs = append(regs, sreg(fmt.Sprintf("t%d", i), 0.5))
		start := t0.Add(time.Duration(i+1) * time.Hour)
		metas = append(metas, metaAt(fmt.Sprintf("t%d", i), start, start.Add(time.Hour)))
	}
	p, _, _ := participant(schedule.Preferences{}, regs...)
	if reply := p.HandleCallForBidsBatch("rival", proto.CallForBidsBatch{Metas: metas}); len(reply.Bids) != len(metas) {
		t.Fatalf("rival bids = %+v, want all six", reply.Bids)
	}
	batch := proto.CallForBidsBatch{Metas: metas}
	testutil.AllocBound(t, 1, func() {
		if reply := p.HandleCallForBidsBatch("wf", batch); len(reply.Declines) != len(metas) {
			t.Fatalf("reply = %+v, want six declines", reply)
		}
	})
}

// TestDecisionLosersDoNotShareTails: every lot's bidders are windows of
// one slab, each capped at its own end, so appending to one decision's
// Losers copies it and leaves the next decision's intact. Every call for
// bids carries the same body.
func TestDecisionLosersDoNotShareTails(t *testing.T) {
	ms := members("h1", "h2", "h3", "h4")
	a, err := NewAuctioneer(ms, []proto.TaskMeta{meta("t1"), meta("t2")})
	if err != nil {
		t.Fatal(err)
	}
	out := a.StartBatched()
	for _, o := range out[1:] {
		if !reflect.DeepEqual(o.Body, out[0].Body) {
			t.Fatalf("body to %s = %+v, want %+v", o.To, o.Body, out[0].Body)
		}
	}
	var ds []Decision
	for i, m := range ms {
		ds = answer(a, string(m), bid("t1", i+1, 0.5, t0), bid("t2", 4-i, 0.5, t0))
	}
	if len(ds) != 2 || ds[0].Winner != "h1" || ds[1].Winner != "h4" {
		t.Fatalf("decisions = %+v, want t1 to h1 and t2 to h4", ds)
	}
	// One more loser fits t1's window, two do not.
	_ = append(ds[0].Losers, "x")
	_ = append(ds[0].Losers, "x", "y")
	if !slices.Equal(ds[0].Losers, members("h2", "h3", "h4")) || !slices.Equal(ds[1].Losers, members("h1", "h2", "h3")) {
		t.Fatalf("losers after appending to t1's = %v and %v, want [h2 h3 h4] and [h1 h2 h3]", ds[0].Losers, ds[1].Losers)
	}
}
