package auction

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/space"
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

// TestAuctioneerManyTasks runs a full auction over a few hundred tasks
// and three members, covering the post-processing the engine does after
// bidding (the winners map, failed set, decision stream) at the scale
// where an accidentally quadratic sweep would show. Every task must be
// decided, won by the member offering the fewest services, and reported
// exactly once.
func TestAuctioneerManyTasks(t *testing.T) {
	const n = 300
	ms := members("h1", "h2", "h3")
	// h2 offers the fewest services: it must win every task.
	services := map[proto.Addr]int{"h1": 5, "h2": 1, "h3": 3}
	metas := make([]proto.TaskMeta, n)
	for i := range metas {
		metas[i] = meta(fmt.Sprintf("t%03d", i))
	}
	a, err := NewAuctioneer(ms, metas)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.StartBatched()); got != len(ms) {
		t.Fatalf("StartBatched emitted %d messages, want %d", got, len(ms))
	}

	now := t0
	deadline := t0.Add(time.Hour)
	var decisions []Decision
	for _, m := range ms {
		for i := range metas {
			decisions = append(decisions, a.HandleBid(m, bid(
				string(metas[i].Task), services[m], 0.5, deadline), now)...)
		}
	}
	if !a.Done() {
		t.Fatal("auction not done")
	}
	if len(decisions) != n {
		t.Fatalf("decisions = %d, want %d", len(decisions), n)
	}
	seen := make(map[model.TaskID]bool, n)
	for _, d := range decisions {
		if d.Failed() || d.Winner != "h2" {
			t.Fatalf("decision %+v, want winner h2", d)
		}
		if seen[d.Task] {
			t.Fatalf("task %q decided twice", d.Task)
		}
		seen[d.Task] = true
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
	now := t0
	deadline := t0.Add(time.Minute)
	if ds := a.HandleBid("h1", bid("t", 3, 0.5, deadline), now); len(ds) != 0 {
		t.Fatalf("decided before all responded: %v", ds)
	}
	ds := a.HandleDecline("h2", "t", now)
	if len(ds) != 1 || ds[0].Winner != "h1" {
		t.Fatalf("decisions = %+v", ds)
	}
	if !a.Done() {
		t.Error("auction not done after decision")
	}
}

func TestSelectionPrefersFewerServices(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2", "h3"), []proto.TaskMeta{meta("t")})
	now := t0
	deadline := t0.Add(time.Minute)
	a.HandleBid("h1", bid("t", 5, 0.9, deadline), now)
	a.HandleBid("h2", bid("t", 2, 0.1, deadline), now)
	ds := a.HandleBid("h3", bid("t", 4, 0.9, deadline), now)
	if len(ds) != 1 || ds[0].Winner != "h2" {
		t.Fatalf("winner = %+v, want h2 (fewest services)", ds)
	}
}

func TestSelectionTieBreaksOnSpecialization(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	now := t0
	deadline := t0.Add(time.Minute)
	a.HandleBid("h1", bid("t", 3, 0.3, deadline), now)
	ds := a.HandleBid("h2", bid("t", 3, 0.8, deadline), now)
	if len(ds) != 1 || ds[0].Winner != "h2" {
		t.Fatalf("winner = %+v, want h2 (higher specialization)", ds)
	}
}

func TestSelectionTieBreaksOnAddress(t *testing.T) {
	a, _ := NewAuctioneer(members("h2", "h1"), []proto.TaskMeta{meta("t")})
	now := t0
	deadline := t0.Add(time.Minute)
	a.HandleBid("h2", bid("t", 3, 0.5, deadline), now)
	ds := a.HandleBid("h1", bid("t", 3, 0.5, deadline), now)
	if len(ds) != 1 || ds[0].Winner != "h1" {
		t.Fatalf("winner = %+v, want h1 (smaller address)", ds)
	}
}

func TestAllDeclinedFails(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	now := t0
	a.HandleDecline("h1", "t", now)
	ds := a.HandleDecline("h2", "t", now)
	if len(ds) != 1 || !ds[0].Failed() {
		t.Fatalf("decisions = %+v, want failed", ds)
	}
	if !a.Done() {
		t.Error("auction not done after the failed decision")
	}
}

func TestDeadlineForcesDecision(t *testing.T) {
	// h2 never answers; the engine counts its failed call as declining
	// every task, which decides the task on the bid in hand, well before
	// the tentative winner's deadline ("the task is guaranteed to be
	// allocated").
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	deadline := t0.Add(time.Minute)
	if ds := a.HandleBid("h1", bid("t", 3, 0.5, deadline), t0); len(ds) != 0 {
		t.Fatal("decided too early")
	}
	ds := a.HandleBidBatch("h2", proto.BidBatch{Declines: []model.TaskID{"t", "not-auctioned"}}, t0)
	if len(ds) != 1 || ds[0].Winner != "h1" {
		t.Fatalf("decisions = %+v", ds)
	}
	if !a.Done() {
		t.Error("auction not done after the silent member declined")
	}
}

func TestBidAtOrAfterDeadlineDecidesImmediately(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	deadline := t0.Add(time.Minute)
	// The bid arrives when its deadline has already passed (slow net).
	ds := a.HandleBid("h1", bid("t", 3, 0.5, deadline), deadline.Add(time.Second))
	if len(ds) != 1 || ds[0].Winner != "h1" {
		t.Fatalf("decisions = %+v", ds)
	}
}

func TestDeadlineUpdateForcesEarlierDecision(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2", "h3"), []proto.TaskMeta{meta("t")})
	a.HandleBid("h1", bid("t", 3, 0.5, t0.Add(time.Hour)), t0)
	// h1 re-bids with a much closer deadline, forcing a decision: the
	// next answer after it passed decides, though h3 has not answered.
	if ds := a.HandleBid("h1", bid("t", 3, 0.5, t0.Add(time.Second)), t0); len(ds) != 0 {
		t.Fatal("decided before the updated deadline")
	}
	ds := a.HandleBid("h2", bid("t", 5, 0.5, t0.Add(time.Hour)), t0.Add(2*time.Second))
	if len(ds) != 1 || ds[0].Winner != "h1" {
		t.Fatalf("decisions = %+v", ds)
	}
}

func TestLateBidIgnoredAfterDecision(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t")})
	a.HandleBid("h1", bid("t", 3, 0.5, t0.Add(time.Minute)), t0)
	a.HandleDecline("h2", "t", t0)
	if ds := a.HandleBid("h2", bid("t", 1, 1, t0.Add(time.Minute)), t0); len(ds) != 0 {
		t.Errorf("late bid produced decisions: %v", ds)
	}
}

func TestUnknownTaskMessagesIgnored(t *testing.T) {
	a, _ := NewAuctioneer(members("h1"), []proto.TaskMeta{meta("t")})
	if ds := a.HandleBid("h1", bid("zz", 1, 1, t0.Add(time.Minute)), t0); len(ds) != 0 {
		t.Errorf("bid for unknown task decided: %v", ds)
	}
	if ds := a.HandleDecline("h1", "zz", t0); len(ds) != 0 {
		t.Errorf("decline for unknown task decided: %v", ds)
	}
}

func TestMultiTaskIndependence(t *testing.T) {
	a, _ := NewAuctioneer(members("h1", "h2"), []proto.TaskMeta{meta("t1"), meta("t2")})
	now := t0
	dl := t0.Add(time.Minute)
	a.HandleBid("h1", bid("t1", 1, 0.5, dl), now)
	d1 := a.HandleBid("h2", bid("t1", 2, 0.5, dl), now) // decides t1 → h1
	a.HandleDecline("h1", "t2", now)
	d2 := a.HandleBid("h2", bid("t2", 2, 0.5, dl), now) // decides t2 → h2
	if !a.Done() {
		t.Fatal("not done")
	}
	if len(d1) != 1 || d1[0].Winner != "h1" || len(d2) != 1 || d2[0].Winner != "h2" {
		t.Errorf("decisions = %v, %v", d1, d2)
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
	p.HandleCancel("wf", proto.Cancel{Task: "t"})
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
			Location: space.Point{X: 3, Y: 4}, HasLocation: true,
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
	p.HandleCancel("wf-1", proto.Cancel{Task: "a"})
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

// TestHandleBidBatchMatchesPerTask: feeding one member's batched reply
// produces the same decisions as the equivalent per-task bid/decline
// sequence on a second auctioneer.
func TestHandleBidBatchMatchesPerTask(t *testing.T) {
	metas := []proto.TaskMeta{meta("t1"), meta("t2"), meta("t3")}
	dl := t0.Add(time.Minute)
	batch := proto.BidBatch{
		Bids:     []proto.Bid{bid("t1", 1, 0.5, dl), bid("t3", 2, 0.5, dl)},
		Declines: []model.TaskID{"t2"},
	}
	decide := func(drive func(a *Auctioneer, from proto.Addr) []Decision) map[model.TaskID]proto.Addr {
		a, err := NewAuctioneer(members("h1", "h2"), metas)
		if err != nil {
			t.Fatal(err)
		}
		won := make(map[model.TaskID]proto.Addr)
		for _, d := range append(drive(a, "h1"), drive(a, "h2")...) {
			if !d.Failed() {
				won[d.Task] = d.Winner
			}
		}
		if !a.Done() {
			t.Fatal("auction not done")
		}
		return won
	}
	batched := decide(func(a *Auctioneer, from proto.Addr) []Decision {
		return a.HandleBidBatch(from, batch, t0)
	})
	perTask := decide(func(a *Auctioneer, from proto.Addr) (ds []Decision) {
		for _, b := range batch.Bids {
			ds = append(ds, a.HandleBid(from, b, t0)...)
		}
		for _, task := range batch.Declines {
			ds = append(ds, a.HandleDecline(from, task, t0)...)
		}
		return ds
	})
	if len(batched) != len(perTask) || len(batched) != 2 {
		t.Fatalf("allocations differ: batched %v vs per-task %v", batched, perTask)
	}
	for task, winner := range perTask {
		if batched[task] != winner {
			t.Fatalf("task %q: batched winner %q vs per-task %q", task, batched[task], winner)
		}
	}
}

// TestParticipantBatchedCallMixedCapability: one batched call covering a
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
