package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/core"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/testutil"
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
		ID: model.TaskID(name), Mode: model.Conjunctive,
		Inputs: lbl(in), Outputs: lbl(out),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fakeMember scripts one community member's behavior.
type fakeMember struct {
	fragments []*model.Fragment
	capable   map[model.TaskID]bool
	// declineAll makes the member decline every call for bids.
	declineAll bool
	// refuseAward makes the member nack awards; refuseTask nacks the
	// listed tasks only, whatever else the same Award carries.
	refuseAward bool
	refuseTask  map[model.TaskID]bool
	// dropAwardAck makes the Award call itself fail (the award may have
	// been delivered, but the ack never comes back — a lost-ack
	// transport fault).
	dropAwardAck bool
	// blockCFB, when set, gates calls for bids per task: a solicitation
	// for a listed task blocks until its channel closes (or the caller's
	// context cancels) — a member that keeps a session mid-auction.
	blockCFB map[model.TaskID]chan struct{}
	services int
}

// fakeNet implements Messenger over scripted members, with no transport.
type fakeNet struct {
	self    proto.Addr
	clk     clock.Clock
	members map[proto.Addr]*fakeMember
	order   []proto.Addr

	mu   sync.Mutex
	sent []proto.Body
	// sentTo pairs every one-way send with its recipient.
	sentTo  []fakeCall
	calls   int
	blocked int // calls currently gated on a blockCFB channel
	// down hosts fail every Call (a crashed or partitioned executor).
	down map[proto.Addr]bool
	// lostOnce scripts leases a host reports Missing on its next
	// LeaseRefresh, then forgets (a swept commitment is gone exactly once).
	lostOnce map[proto.Addr][]model.TaskID
	// segs, when non-nil, receives every segment of every Plan call (tests
	// use it to observe distribution and re-distribution).
	segs chan proto.PlanSegment
	// refreshes records every LeaseRefresh call received.
	refreshes []proto.LeaseRefresh
	// log records every Call in order. describes makes members honor
	// FragmentQuery.Describe — except the mute ones, which answer like a
	// peer that has never heard of the field.
	log       []fakeCall
	describes bool
	mute      map[proto.Addr]bool
}

// fakeCall is one logged Call.
type fakeCall struct {
	to   proto.Addr
	body proto.Body
}

// description is the capability set a describing member reports: the
// labels its fragments consume and the tasks it is capable of, sorted.
func (f *fakeNet) description(m *fakeMember) *proto.Advertise {
	caps := &proto.Advertise{}
	seen := make(map[model.LabelID]bool)
	for _, fr := range m.fragments {
		for _, t := range fr.Tasks {
			for _, in := range t.Inputs {
				if !seen[in] {
					seen[in] = true
					caps.Labels = append(caps.Labels, in)
				}
			}
		}
	}
	f.mu.Lock()
	for t, ok := range m.capable {
		if ok {
			caps.Tasks = append(caps.Tasks, t)
		}
	}
	f.mu.Unlock()
	slices.Sort(caps.Labels)
	slices.Sort(caps.Tasks)
	return caps
}

func newFakeNet(self proto.Addr) *fakeNet {
	return &fakeNet{
		self:    self,
		clk:     clock.New(),
		members: make(map[proto.Addr]*fakeMember),
	}
}

func (f *fakeNet) add(addr proto.Addr, m *fakeMember) {
	if m.capable == nil {
		m.capable = make(map[model.TaskID]bool)
	}
	f.members[addr] = m
	f.order = append(f.order, addr)
}

func (f *fakeNet) Self() proto.Addr   { return f.self }
func (f *fakeNet) Clock() clock.Clock { return f.clk }
func (f *fakeNet) Members() []proto.Addr {
	return append([]proto.Addr(nil), f.order...)
}

func (f *fakeNet) Send(_ context.Context, to proto.Addr, workflow string, body proto.Body) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, body)
	f.sentTo = append(f.sentTo, fakeCall{to, body})
	return nil
}

// cancels splits the Cancels sent so far into the recipients of
// whole-workflow releases (no task named), in send order, and the number
// of per-task compensations.
func (f *fakeNet) cancels() (released []proto.Addr, perTask int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.sentTo {
		if c, ok := s.body.(proto.Cancel); ok && c.Task == "" {
			released = append(released, s.to)
		} else if ok {
			perTask++
		}
	}
	return released, perTask
}

// clearLog forgets the calls logged so far.
func (f *fakeNet) clearLog() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = nil
}

// setDown marks a host dead: every Call to it fails from now on.
func (f *fakeNet) setDown(addr proto.Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down == nil {
		f.down = make(map[proto.Addr]bool)
	}
	f.down[addr] = true
}

// loseLease scripts the host's next LeaseRefresh to report tasks Missing.
func (f *fakeNet) loseLease(addr proto.Addr, tasks ...model.TaskID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lostOnce == nil {
		f.lostOnce = make(map[proto.Addr][]model.TaskID)
	}
	f.lostOnce[addr] = append(f.lostOnce[addr], tasks...)
}

// setCapable flips one host's feasibility/bidding capability for a task.
func (f *fakeNet) setCapable(addr proto.Addr, task model.TaskID, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members[addr].capable[task] = ok
}

// setDeclineAll flips one host's blanket bid refusal.
func (f *fakeNet) setDeclineAll(addr proto.Addr, v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members[addr].declineAll = v
}

// gateCFB blocks a solicitation for task while the member's blockCFB gate
// for it is shut, counting the call as blocked meanwhile.
func (f *fakeNet) gateCFB(ctx context.Context, m *fakeMember, task model.TaskID) error {
	gate, ok := m.blockCFB[task]
	if !ok {
		return nil
	}
	f.mu.Lock()
	f.blocked++
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.blocked--
		f.mu.Unlock()
	}()
	select {
	case <-gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *fakeNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.calls++
	f.log = append(f.log, fakeCall{to, body})
	isDown := f.down[to]
	f.mu.Unlock()
	if isDown {
		return nil, fmt.Errorf("host %q is down", to)
	}
	m, ok := f.members[to]
	if !ok {
		return nil, fmt.Errorf("unreachable %q", to)
	}
	switch b := body.(type) {
	case proto.CallForBidsBatch:
		// The scripted behaviors (declineAll, blockCFB gates) apply per
		// task within the batch; bids expire in one second.
		// A task that rides on the call (b.Sole) is awarded as it is bid
		// for: the award scripts apply to it here — a refusal is a decline,
		// a lost ack the loss of the whole reply.
		if len(b.Sole) > 0 && m.dropAwardAck {
			return nil, fmt.Errorf("bid batch from %q lost", to)
		}
		var reply proto.BidBatch
		for _, meta := range b.Metas {
			if err := f.gateCFB(ctx, m, meta.Task); err != nil {
				return nil, err
			}
			f.mu.Lock()
			decline := m.declineAll || !m.capable[meta.Task] ||
				slices.Contains(b.Sole, meta.Task) && (m.refuseAward || m.refuseTask[meta.Task])
			f.mu.Unlock()
			if decline {
				reply.Declines = append(reply.Declines, meta.Task)
				continue
			}
			reply.Bids = append(reply.Bids, proto.Bid{
				Task:            meta.Task,
				ServicesOffered: m.services,
				Specialization:  0.5,
				Deadline:        f.clk.Now().Add(time.Second),
			})
		}
		return reply, nil
	case proto.FragmentQuery:
		var out []*model.Fragment
		if b.Labels == nil {
			out = m.fragments
		} else {
			for _, fr := range m.fragments {
				if fr.ConsumesAny(b.Labels) {
					out = append(out, fr)
				}
			}
		}
		reply := proto.FragmentReply{Fragments: out}
		if b.Describe && f.describes && !f.mute[to] {
			reply.Capabilities = f.description(m)
		}
		return reply, nil
	case proto.FeasibilityQuery:
		var capable []model.TaskID
		f.mu.Lock()
		for _, task := range b.Tasks {
			if m.capable[task] {
				capable = append(capable, task)
			}
		}
		f.mu.Unlock()
		return proto.FeasibilityReply{Capable: capable}, nil
	case proto.Award:
		if m.dropAwardAck {
			return nil, fmt.Errorf("award ack from %q lost", to)
		}
		// One verdict per task the Award carries, in its order.
		var ack proto.AwardAck
		for _, meta := range append([]proto.TaskMeta{b.Meta}, b.More...) {
			v := proto.Verdict{Task: meta.Task, OK: true}
			if m.refuseAward || m.refuseTask[meta.Task] {
				v = proto.Verdict{Task: meta.Task, OK: false, Reason: "scripted refusal"}
			}
			ack.Verdicts = append(ack.Verdicts, v)
		}
		return ack, nil
	case proto.Plan:
		f.mu.Lock()
		segCh := f.segs
		f.mu.Unlock()
		if segCh != nil {
			// Every segment the request carries is observed on its own.
			for _, seg := range b.Segments {
				segCh <- seg
			}
		}
		return proto.Ack{}, nil
	case proto.LeaseRefresh:
		f.mu.Lock()
		f.refreshes = append(f.refreshes, b)
		missing := f.lostOnce[to]
		delete(f.lostOnce, to)
		f.mu.Unlock()
		requested := make(map[model.TaskID]struct{}, len(b.Tasks))
		for _, task := range b.Tasks {
			requested[task] = struct{}{}
		}
		var ack proto.LeaseRefreshAck
		for _, task := range missing {
			if _, ok := requested[task]; ok {
				ack.Missing = append(ack.Missing, task)
			}
		}
		return ack, nil
	default:
		return nil, fmt.Errorf("unexpected call body %T", body)
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CallTimeout = time.Second
	cfg.StartDelay = 50 * time.Millisecond
	cfg.TaskWindow = 20 * time.Millisecond
	return cfg
}

// chainNet scripts a two-member community knowing a → t1 → m → t2 → g.
func chainNet(t *testing.T) *fakeNet {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "t1", "a", "m"),
			mkFrag(t, "t2", "m", "g"),
		},
		capable:  map[model.TaskID]bool{"t1": true, "t2": true},
		services: 2,
	})
	return net
}

func TestInitiateHappyPath(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.NumTasks() != 2 {
		t.Fatalf("workflow:\n%v", plan.Workflow)
	}
	if plan.Allocations["t1"] != "peer" || plan.Allocations["t2"] != "peer" {
		t.Errorf("Allocations = %v", plan.Allocations)
	}
	if plan.Replans != 0 {
		t.Errorf("Replans = %d", plan.Replans)
	}
	// Windows staggered by topological order.
	if !plan.Metas["t1"].Start.Before(plan.Metas["t2"].Start) {
		t.Errorf("windows not staggered: %v vs %v",
			plan.Metas["t1"].Start, plan.Metas["t2"].Start)
	}
	if plan.WorkflowID == "" {
		t.Error("empty workflow ID")
	}
}

func TestInitiateInvalidSpec(t *testing.T) {
	m := NewManager(chainNet(t), testConfig())
	if _, err := m.Initiate(context.Background(), spec.Spec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestInitiateNoKnowledge(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	m := NewManager(net, testConfig())
	_, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("err = %v", err)
	}
}

func TestInitiateFeasibilityFiltersPath(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "short", "a", "g"), // nobody can perform it
			mkFrag(t, "long1", "a", "m"),
			mkFrag(t, "long2", "m", "g"),
		},
		capable:  map[model.TaskID]bool{"long1": true, "long2": true},
		services: 2,
	})
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Workflow.Task("short"); ok {
		t.Error("infeasible short path selected")
	}
	if plan.Workflow.NumTasks() != 2 {
		t.Errorf("workflow:\n%v", plan.Workflow)
	}
}

func TestInitiateReplansWhenBidsFail(t *testing.T) {
	// Feasibility off: capability exists on paper, but the only capable
	// host declines every call for bids. The engine retries windows,
	// then excludes the task and takes the alternative.
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("flaky", &fakeMember{
		fragments:  []*model.Fragment{mkFrag(t, "short", "a", "g")},
		capable:    map[model.TaskID]bool{"short": true},
		declineAll: true,
		services:   1,
	})
	net.add("steady", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "long1", "a", "m"),
			mkFrag(t, "long2", "m", "g"),
		},
		capable:  map[model.TaskID]bool{"long1": true, "long2": true},
		services: 2,
	})
	cfg := testConfig()
	cfg.Feasibility = false
	cfg.WindowRetries = 0
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Workflow.Task("short"); ok {
		t.Error("unallocatable short path kept")
	}
	if plan.Replans == 0 {
		t.Error("Replans = 0, expected at least one replan")
	}
}

func TestInitiateReplansOnRefusedAward(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("liar", &fakeMember{
		fragments:   []*model.Fragment{mkFrag(t, "short", "a", "g")},
		capable:     map[model.TaskID]bool{"short": true},
		refuseAward: true,
		services:    1,
	})
	net.add("steady", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "long1", "a", "m"),
			mkFrag(t, "long2", "m", "g"),
		},
		capable:  map[model.TaskID]bool{"long1": true, "long2": true},
		services: 2,
	})
	cfg := testConfig()
	cfg.WindowRetries = 0
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Workflow.Task("short"); ok {
		t.Error("refused-award path kept")
	}
	// Compensation cancels were sent for the refused attempt's awards.
	net.mu.Lock()
	defer net.mu.Unlock()
	for _, b := range net.sent {
		if _, ok := b.(proto.Cancel); ok {
			return
		}
	}
	// No cancels is fine too if no award succeeded in the failed
	// attempt; the liar refused its only award.
}

// TestLostAwardAckSendsCancel: when the Award call fails with a non-
// context error (timeout, lost ack), the award may nevertheless have
// reached the winner. The engine must send a best-effort Cancel so the
// winner does not keep a dead commitment blocking its schedule window
// while the task is replanned. (Regression: this path used to mark the
// task failed without compensating.)
func TestLostAwardAckSendsCancel(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments:    []*model.Fragment{mkFrag(t, "only", "a", "g")},
		capable:      map[model.TaskID]bool{"only": true},
		dropAwardAck: true,
		services:     1,
	})
	cfg := testConfig()
	cfg.WindowRetries = 0
	cfg.MaxReplans = 0
	m := NewManager(net, cfg)
	if _, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err == nil {
		t.Fatal("Initiate succeeded although every award ack was lost")
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	for _, b := range net.sent {
		if c, ok := b.(proto.Cancel); ok && c.Task == "only" {
			return
		}
	}
	t.Fatalf("no Cancel sent for the possibly-delivered award; sent = %v", net.sent)
}

func TestInitiateFailsAfterMaxReplans(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("flaky", &fakeMember{
		fragments:  []*model.Fragment{mkFrag(t, "only", "a", "g")},
		capable:    map[model.TaskID]bool{"only": true},
		declineAll: true,
		services:   1,
	})
	cfg := testConfig()
	cfg.Feasibility = false
	cfg.WindowRetries = 0
	cfg.MaxReplans = 1
	m := NewManager(net, cfg)
	_, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err == nil {
		t.Fatal("Initiate succeeded with an unallocatable only path")
	}
	// Either the reconstruction fails (task excluded → no solution) or
	// replanning is exhausted; both are acceptable failures.
	if !errors.Is(err, core.ErrNoSolution) && !errors.Is(err, ErrAllocationFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestInitiateConstraintsMaxTasks(t *testing.T) {
	net := chainNet(t)
	cfg := testConfig()
	cfg.Constraints = spec.Constraints{MaxTasks: 1}
	m := NewManager(net, cfg)
	_, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("err = %v, want constraint violation as no-solution", err)
	}
}

func TestInitiateConstraintsExcludeTasks(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "short", "a", "g"),
			mkFrag(t, "alt1", "a", "m"),
			mkFrag(t, "alt2", "m", "g"),
		},
		capable:  map[model.TaskID]bool{"short": true, "alt1": true, "alt2": true},
		services: 3,
	})
	cfg := testConfig()
	cfg.Constraints = spec.Constraints{ExcludeTasks: []model.TaskID{"short"}}
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Workflow.Task("short"); ok {
		t.Error("excluded task selected")
	}
}

func TestInitiateFullCollectionMode(t *testing.T) {
	net := chainNet(t)
	cfg := testConfig()
	cfg.Incremental = false
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.NumTasks() != 2 {
		t.Fatalf("workflow:\n%v", plan.Workflow)
	}
}

func TestInitiateFullCollectionFeasibility(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "short", "a", "g"),
			mkFrag(t, "alt1", "a", "m"),
			mkFrag(t, "alt2", "m", "g"),
		},
		capable:  map[model.TaskID]bool{"alt1": true, "alt2": true},
		services: 2,
	})
	cfg := testConfig()
	cfg.Incremental = false
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Workflow.Task("short"); ok {
		t.Error("infeasible task selected in full-collection mode")
	}
}

// TestFullCollectionChecksEveryReconstruction: of three routes a → g the two
// shortest have no provider. Feasibility is re-checked after each
// reconstruction, in full-collection mode as in incremental mode, so the
// third route is found during construction and costs no failed auction and
// no replan. (When full collection had its own construct-check-reconstruct
// body, the second construction went to auction unchecked: Replans == 1.)
func TestFullCollectionChecksEveryReconstruction(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "short", "a", "g"),
			mkFrag(t, "mid1", "a", "m"), mkFrag(t, "mid2", "m", "g"),
			mkFrag(t, "long1", "a", "x"), mkFrag(t, "long2", "x", "y"), mkFrag(t, "long3", "y", "g"),
		},
		capable:  map[model.TaskID]bool{"long1": true, "long2": true, "long3": true},
		services: 3,
	})
	for _, incremental := range []bool{false, true} {
		cfg := testConfig()
		cfg.Incremental = incremental
		plan, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
		if err != nil {
			t.Fatalf("incremental=%v: %v", incremental, err)
		}
		if _, ok := plan.Workflow.Task("long2"); !ok || plan.Workflow.NumTasks() != 3 || plan.Replans != 0 {
			t.Errorf("incremental=%v: %d replans for\n%v\nwant the three-task route with none",
				incremental, plan.Replans, plan.Workflow)
		}
	}
}

func TestExecuteRejectsPartialPlan(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	delete(plan.Allocations, "t1")
	if _, err := m.Execute(context.Background(), plan, nil); err == nil {
		t.Fatal("partial plan executed")
	}
}

func TestExecuteCompletion(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	// Feed completion events while Execute waits.
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t1"})
		m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t2"})
		m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g", Data: []byte("done")})
	}()
	report, err := m.Execute(context.Background(), plan, map[model.LabelID][]byte{"a": []byte("go")})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("report = %+v", report)
	}
	if string(report.Goals["g"]) != "done" {
		t.Errorf("goal data = %q", report.Goals["g"])
	}
	if report.TasksDone != 2 {
		t.Errorf("TasksDone = %d", report.TasksDone)
	}
}

func TestExecuteTaskFailureFinishesEarly(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t1", Err: "exploded"})
	}()
	report, err := m.Execute(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed {
		t.Error("failed execution reported as completed")
	}
	if len(report.Failures) != 1 || !strings.Contains(report.Failures[0], "exploded") {
		t.Errorf("Failures = %v", report.Failures)
	}
}

func TestExecuteTimeout(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	report, err := m.Execute(ctx, plan, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if report == nil || report.Completed {
		t.Errorf("timed-out execution report = %+v", report)
	}
}

func TestExecuteDuplicateRejected(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	go func() {
		close(started)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		_, _ = m.Execute(ctx, plan, nil)
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	if _, err := m.Execute(context.Background(), plan, nil); err == nil {
		t.Error("duplicate Execute accepted")
	}
	// The refused duplicate owns nothing: only the execution that is
	// still running may release the workflow.
	if released, _ := net.cancels(); len(released) != 0 {
		t.Errorf("refused duplicate released %v", released)
	}
}

// TestExecuteReleasesEveryParticipantOnce: however an execution ends, its
// return sends each distinct participant of the plan exactly one
// whole-workflow release — and nothing else: an abort compensates nobody
// task by task, and the initiator, whose goal labels end with the
// execution, is released only when it ran a task itself.
func TestExecuteReleasesEveryParticipantOnce(t *testing.T) {
	// a →t1→ m →t2→ n →t3→ g with t1 and t3 on p1, t2 on p2 (or on the
	// initiator): three tasks, two participants.
	build := func(t *testing.T, initRuns bool) (*fakeNet, *Manager, *Plan) {
		net := newFakeNet("init")
		t2 := map[model.TaskID]bool{"t2": true}
		initiator, p2 := &fakeMember{}, &fakeMember{capable: t2, services: 1}
		if initRuns {
			initiator, p2 = &fakeMember{capable: t2, services: 1}, &fakeMember{}
		}
		initiator.fragments = []*model.Fragment{
			mkFrag(t, "t1", "a", "m"), mkFrag(t, "t2", "m", "n"), mkFrag(t, "t3", "n", "g"),
		}
		net.add("init", initiator)
		net.add("p1", &fakeMember{capable: map[model.TaskID]bool{"t1": true, "t3": true}, services: 2})
		net.add("p2", p2)
		cfg := testConfig()
		cfg.LeaseRefreshInterval = 15 * time.Millisecond
		m := NewManager(net, cfg)
		plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
		if err != nil {
			t.Fatal(err)
		}
		return net, m, plan
	}
	everyone := []proto.Addr{"p1", "p2"}
	complete := func(_ *fakeNet, m *Manager, wf string, _ func()) {
		for _, task := range []model.TaskID{"t1", "t2", "t3"} {
			m.OnTaskDone(wf, proto.TaskDone{Task: task})
		}
		m.OnLabelTransfer(wf, proto.LabelTransfer{Label: "g"})
	}
	for _, row := range []struct {
		name string
		// initRuns allocates t2 to the initiator instead of p2.
		initRuns bool
		// end makes the running execution end; cancel cancels its context.
		end     func(net *fakeNet, m *Manager, wf string, cancel func())
		before  func(net *fakeNet)
		want    []proto.Addr
		wantErr bool
	}{
		{name: "completed", want: everyone, end: complete},
		{name: "completed, the initiator a participant", initRuns: true, want: []proto.Addr{"init", "p1"}, end: complete},
		{name: "task failed", want: everyone, end: func(_ *fakeNet, m *Manager, wf string, _ func()) {
			m.OnTaskDone(wf, proto.TaskDone{Task: "t1", Err: "exploded"})
		}},
		{name: "abandoned by its caller", want: everyone, wantErr: true, end: func(_ *fakeNet, _ *Manager, _ string, cancel func()) {
			cancel()
		}},
		// p2 dies and nobody else offers t2: repair fails and aborts. The
		// dead host's allocation is void; the survivors are released.
		{name: "aborted by a failed repair", want: []proto.Addr{"p1"}, end: func(net *fakeNet, _ *Manager, _ string, _ func()) {
			net.setDown("p2")
		}},
		{name: "distribution failed", want: everyone, wantErr: true, before: func(net *fakeNet) {
			net.setDown("p2")
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			net, m, plan := build(t, row.initRuns)
			if row.before != nil {
				row.before(net)
			}
			_, compensated := net.cancels()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if row.end != nil {
				go func() {
					time.Sleep(20 * time.Millisecond)
					if released, _ := net.cancels(); len(released) != 0 {
						t.Errorf("released %v while the execution was still running", released)
					}
					row.end(net, m, plan.WorkflowID, cancel)
				}()
			}
			if _, err := m.Execute(ctx, plan, nil); (err != nil) != row.wantErr {
				t.Fatalf("Execute err = %v, want an error: %v", err, row.wantErr)
			}
			released, perTask := net.cancels()
			if !slices.Equal(released, row.want) {
				t.Errorf("released %v, want each of %v once", released, row.want)
			}
			if perTask != compensated {
				t.Errorf("%d per-task cancels sent by the ending execution, want none", perTask-compensated)
			}
		})
	}
}

func TestStaleExecutionEventsIgnored(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	// Events for unknown workflows must be ignored quietly.
	m.OnTaskDone("nope", proto.TaskDone{Task: "t1"})
	m.OnLabelTransfer("nope", proto.LabelTransfer{Label: "g"})
}

func TestPlanSegmentsRouting(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	segs := m.planSegments(plan)
	if len(segs) != 2 {
		t.Fatalf("segments = %d", len(segs))
	}
	byTask := make(map[model.TaskID]proto.PlanSegment, len(segs))
	for _, s := range segs {
		byTask[s.Task] = s
	}
	// t1's input a comes from the initiator (trigger); its output m
	// goes to t2's executor.
	if got := byTask["t1"].InputSources["a"]; got != "init" {
		t.Errorf("t1 input source = %v", got)
	}
	if got := byTask["t1"].OutputSinks["m"]; len(got) != 1 || got[0] != "peer" {
		t.Errorf("t1 output sinks = %v", got)
	}
	// t2's goal output g returns to the initiator.
	foundInit := false
	for _, sink := range byTask["t2"].OutputSinks["g"] {
		if sink == "init" {
			foundInit = true
		}
	}
	if !foundInit {
		t.Errorf("goal not routed to initiator: %v", byTask["t2"].OutputSinks["g"])
	}
	if byTask["t1"].Initiator != "init" || byTask["t2"].Initiator != "init" {
		t.Error("initiator missing from segments")
	}
}

func TestInitiateParallelQuery(t *testing.T) {
	net := chainNet(t)
	cfg := testConfig()
	cfg.ParallelQuery = true
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.NumTasks() != 2 {
		t.Fatalf("workflow:\n%v", plan.Workflow)
	}
}

// TestInitiateUnreachableMemberSkipped: a member that errors on every call
// simply contributes nothing; construction succeeds from the rest.
func TestInitiateUnreachableMemberSkipped(t *testing.T) {
	net := chainNet(t)
	net.order = append(net.order, "ghost") // listed but not scripted → Call errors
	for _, parallel := range []bool{false, true} {
		cfg := testConfig()
		cfg.ParallelQuery = parallel
		m := NewManager(net, cfg)
		plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
		if err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if plan.Workflow.NumTasks() != 2 {
			t.Fatalf("parallel=%v workflow:\n%v", parallel, plan.Workflow)
		}
	}
}

func TestAllocateWorkflowStaticBaseline(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	// Pre-specified workflow (the CiAN-style mode): build it locally.
	w, err := model.NewWorkflowOfTasks([]model.Task{
		{ID: "t1", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("m")},
		{ID: "t2", Mode: model.Conjunctive, Inputs: lbl("m"), Outputs: lbl("g")},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.AllocateWorkflow(context.Background(), w, spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != 2 {
		t.Fatalf("Allocations = %v", plan.Allocations)
	}
	if _, err := m.AllocateWorkflow(context.Background(), nil, spec.Must(lbl("a"), lbl("g"))); err == nil {
		t.Error("nil workflow accepted")
	}
}

func TestAllocateWorkflowFailsWithoutProviders(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	m := NewManager(net, testConfig())
	w, err := model.NewWorkflowOfTasks([]model.Task{
		{ID: "t1", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("g")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocateWorkflow(context.Background(), w, spec.Must(lbl("a"), lbl("g"))); !errors.Is(err, ErrAllocationFailed) {
		t.Fatalf("err = %v, want ErrAllocationFailed", err)
	}
}

// TestInitiateBatchConcurrentSessions: one engine multiplexes several
// allocation sessions at once; every session gets its own workflow ID
// (minted in spec order regardless of interleaving) and a plan
// satisfying its own spec.
func TestInitiateBatchConcurrentSessions(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "t1", "a", "m"),
			mkFrag(t, "t2", "m", "g"),
			mkFrag(t, "u1", "x", "y"),
			mkFrag(t, "v1", "p", "q"),
		},
		capable:  map[model.TaskID]bool{"t1": true, "t2": true, "u1": true, "v1": true},
		services: 4,
	})
	m := NewManager(net, testConfig())
	specs := []spec.Spec{
		spec.Must(lbl("a"), lbl("g")),
		spec.Must(lbl("x"), lbl("y")),
		spec.Must(lbl("p"), lbl("q")),
	}
	plans, err := m.InitiateBatch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("plans = %d", len(plans))
	}
	seen := make(map[string]bool)
	for i, p := range plans {
		if p == nil {
			t.Fatalf("plan %d is nil", i)
		}
		if !specs[i].Satisfies(p.Workflow) {
			t.Errorf("plan %d violates its spec:\n%v", i, p.Workflow)
		}
		if seen[p.WorkflowID] {
			t.Errorf("duplicate workflow ID %q", p.WorkflowID)
		}
		seen[p.WorkflowID] = true
	}
	// IDs minted in spec order: init/1, init/2, init/3.
	for i, p := range plans {
		want := "init/" + string(rune('1'+i))
		if p.WorkflowID != want {
			t.Errorf("plan %d WorkflowID = %q, want %q", i, p.WorkflowID, want)
		}
	}
	if got := m.InFlight(); got != 0 {
		t.Errorf("active sessions after settle = %d", got)
	}
}

// TestInitiateBatchPartialFailure: one session's failure surfaces in the
// joined error while the other sessions' plans come back intact.
func TestInitiateBatchPartialFailure(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	plans, err := m.InitiateBatch(context.Background(), []spec.Spec{
		spec.Must(lbl("a"), lbl("g")),
		spec.Must(lbl("a"), lbl("nope")), // no knowledge: must fail
	})
	if err == nil {
		t.Fatal("batch with an unsatisfiable spec reported no error")
	}
	if plans[0] == nil || plans[1] != nil {
		t.Fatalf("plans = [%v, %v], want [plan, nil]", plans[0], plans[1])
	}
}

// TestActiveAllocationsDuringSession: a session in flight is visible in
// InFlight and gone after it settles.
func TestActiveAllocationsDuringSession(t *testing.T) {
	net := slowBidNet(t)
	cfg := testConfig()
	cfg.Feasibility = false
	m := NewManager(net, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = m.Initiate(ctx, spec.Must(lbl("a"), lbl("g")))
	}()
	deadline := time.Now().Add(2 * time.Second)
	for m.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if got := m.InFlight(); got != 0 {
		t.Errorf("active sessions after cancel = %d", got)
	}
}

// TestLostAwardAckSendsCancelWhileConcurrentSession extends the
// lost-award regression to concurrent sessions: the dead-commitment
// sweep (best-effort Cancel after a failed Award call) runs while a
// second session on the same engine sits mid-auction, and must neither
// disturb that session nor leak into its workflow. (The sweep is
// session-keyed: compensation names only the failing session's workflow
// ID.)
func TestLostAwardAckSendsCancelWhileConcurrentSession(t *testing.T) {
	testutil.CheckGoroutines(t)
	gate := make(chan struct{})
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments:    []*model.Fragment{mkFrag(t, "only", "a", "g")},
		capable:      map[model.TaskID]bool{"only": true},
		dropAwardAck: true,
		services:     1,
	})
	net.add("slow", &fakeMember{
		fragments: []*model.Fragment{mkFrag(t, "bslow", "x", "y")},
		capable:   map[model.TaskID]bool{"bslow": true},
		blockCFB:  map[model.TaskID]chan struct{}{"bslow": gate},
		services:  1,
	})
	cfg := testConfig()
	cfg.WindowRetries = 0
	cfg.MaxReplans = 0
	m := NewManager(net, cfg)

	// Session B: blocked mid-auction on the gated member.
	type initResult struct {
		plan *Plan
		err  error
	}
	bDone := make(chan initResult, 1)
	go func() {
		p, err := m.Initiate(context.Background(), spec.Must(lbl("x"), lbl("y")))
		bDone <- initResult{p, err}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		net.mu.Lock()
		blocked := net.blocked
		net.mu.Unlock()
		if blocked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second session never reached its mid-auction block")
		}
		time.Sleep(time.Millisecond)
	}

	// Session A: every award ack lost → Initiate fails, and the sweep
	// sends a best-effort Cancel for the possibly-delivered award.
	if _, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err == nil {
		t.Fatal("Initiate succeeded although every award ack was lost")
	}
	net.mu.Lock()
	var cancels []proto.Cancel
	for _, b := range net.sent {
		if c, ok := b.(proto.Cancel); ok {
			cancels = append(cancels, c)
		}
	}
	stillBlocked := net.blocked
	net.mu.Unlock()
	if len(cancels) != 1 || cancels[0].Task != "only" {
		t.Fatalf("cancels = %v, want exactly one for task %q", cancels, "only")
	}
	if stillBlocked != 1 {
		t.Fatalf("second session no longer mid-auction (blocked=%d); the sweep disturbed it", stillBlocked)
	}
	if got := m.InFlight(); got != 1 {
		t.Fatalf("active sessions = %d, want the blocked session only", got)
	}

	// Release the gate: session B must finish cleanly, untouched by A's
	// failure and compensation.
	close(gate)
	r := <-bDone
	if r.err != nil {
		t.Fatalf("concurrent session failed: %v", r.err)
	}
	if got := r.plan.Allocations["bslow"]; got != "slow" {
		t.Fatalf("concurrent session allocations = %v", r.plan.Allocations)
	}
}

// TestInitiateBatchInvalidSpecLeavesNoSessions: a validation error on
// any spec aborts the whole batch before any session is registered.
func TestInitiateBatchInvalidSpecLeavesNoSessions(t *testing.T) {
	m := NewManager(chainNet(t), testConfig())
	_, err := m.InitiateBatch(context.Background(), []spec.Spec{
		spec.Must(lbl("a"), lbl("g")),
		{}, // invalid
	})
	if err == nil {
		t.Fatal("batch with an invalid spec accepted")
	}
	if got := m.InFlight(); got != 0 {
		t.Fatalf("active sessions = %d after aborted batch, want none", got)
	}
}

// boundedNet wraps fakeNet to track the peak number of in-flight Calls and,
// when cancelAt is set, to cancel the round as its cancelAt-th Call starts.
type boundedNet struct {
	*fakeNet

	cmu      sync.Mutex
	inflight int
	peak     int
	started  int
	cancelAt int
	cancel   context.CancelFunc
}

func (b *boundedNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	b.cmu.Lock()
	b.inflight++
	if b.inflight > b.peak {
		b.peak = b.inflight
	}
	if b.started++; b.started == b.cancelAt {
		b.cancel()
	}
	b.cmu.Unlock()
	// Hold the call open briefly so concurrent workers overlap and the
	// peak is meaningful.
	time.Sleep(time.Millisecond)
	defer func() {
		b.cmu.Lock()
		b.inflight--
		b.cmu.Unlock()
	}()
	return b.fakeNet.Call(ctx, to, workflow, body, timeout)
}

// TestParallelQueryBoundedByWorkerCount drives the one query loop at both of
// its bounds over 64 members, one of them unreachable: alone on the caller's
// goroutine (ParallelQuery off) and shared by Workers goroutines (on). Either
// way the round reaches every member, returns the replies in member order
// without the unreachable one, and never has more Calls in flight than its
// bound; a context canceled mid-round is returned and leaves no goroutine.
func TestParallelQueryBoundedByWorkerCount(t *testing.T) {
	for _, bound := range []int{1, Workers} {
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			inner := newFakeNet("init")
			var want []string
			for i := 0; i < 64; i++ {
				addr := proto.Addr(fmt.Sprintf("m%02d", i))
				frag := fmt.Sprintf("f%02d", i)
				inner.add(addr, &fakeMember{
					fragments: []*model.Fragment{mkFrag(t, frag, "a", "g")},
				})
				if i != 7 {
					want = append(want, string(addr)+":"+frag)
				}
			}
			inner.setDown("m07")
			net := &boundedNet{fakeNet: inner}
			cfg := testConfig()
			cfg.ParallelQuery = bound > 1
			m := NewManager(net, cfg)
			query := proto.FragmentQuery{Labels: lbl("a")}

			replies, err := m.queryMembers(context.Background(), "wf", query, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range replies {
				fr, ok := r.body.(proto.FragmentReply)
				if !ok || len(fr.Fragments) != 1 {
					t.Fatalf("reply from %q = %#v", r.from, r.body)
				}
				got = append(got, string(r.from)+":"+fr.Fragments[0].Name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("replies = %v\nwant every reachable member once, in member order: %v", got, want)
			}
			net.cmu.Lock()
			peak, started := net.peak, net.started
			net.cmu.Unlock()
			if started != 64 {
				t.Errorf("round made %d calls, want one per member (64)", started)
			}
			if peak > bound {
				t.Errorf("peak in-flight calls = %d, want ≤ %d", peak, bound)
			}
			if bound > 1 && peak < 2 {
				t.Errorf("peak in-flight calls = %d; the round never actually overlapped", peak)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			net.cmu.Lock()
			net.started, net.cancelAt, net.cancel = 0, 10, cancel
			net.cmu.Unlock()
			if _, err := m.queryMembers(ctx, "wf", query, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("round canceled at its tenth call returned %v, want context.Canceled", err)
			}
			net.cmu.Lock()
			started = net.started
			net.cmu.Unlock()
			if started >= 64 {
				t.Errorf("canceled round still made %d calls", started)
			}
		})
	}
}

// badAwardNet scripts a provider whose reply to the Award carrying one
// task comes back as the wrong body type — a protocol violation surfacing
// mid-sweep, after an earlier winner's awards already confirmed.
type badAwardNet struct {
	*fakeNet
	badTask model.TaskID
}

func (b *badAwardNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if award, ok := body.(proto.Award); ok {
		carried := append([]proto.TaskMeta{award.Meta}, award.More...)
		if slices.ContainsFunc(carried, func(m proto.TaskMeta) bool { return m.Task == b.badTask }) {
			return proto.Ack{}, nil // wrong reply type for an Award
		}
	}
	return b.fakeNet.Call(ctx, to, workflow, body, timeout)
}

// TestProtocolViolationMidSweepCompensatesAwards: with decision-time
// awards, an abort after some awards confirmed must cancel them — a
// winner must never keep a commitment for a session that erred out.
// (Regression: the unexpected-reply exits used to return without
// compensating, which was harmless when awards only went out after the
// sweep but leaks commitments now that they go out inside it.)
func TestProtocolViolationMidSweepCompensatesAwards(t *testing.T) {
	// One round of decisions, two winners: p1's award (t1, t3) goes first
	// and confirms, p2's (t2) violates.
	net := &badAwardNet{fakeNet: groupNet(t), badTask: "t2"}
	m := NewManager(net, oneAttempt())
	if _, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err == nil {
		t.Fatal("Initiate succeeded despite a protocol-violating award reply")
	}
	// Compensation must have canceled everything p1 confirmed.
	if got, want := taskCancels(net.fakeNet), []string{"t1@p1", "t3@p1"}; !slices.Equal(got, want) {
		t.Fatalf("cancels after mid-sweep abort = %v, want %v", got, want)
	}
}

// TestInFlightZeroAfterEveryOutcome pins the engine's one session count (the
// daemon's openwf_sessions_active gauge reads it): a session that succeeds
// and one that fails both leave it, and a validation error never mints one.
func TestInFlightZeroAfterEveryOutcome(t *testing.T) {
	m := NewManager(chainNet(t), testConfig())
	if got := m.InFlight(); got != 0 {
		t.Fatalf("fresh engine InFlight = %d", got)
	}
	if _, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("unreachable"))); err == nil {
		t.Fatal("Initiate with unknown goal succeeded")
	}
	if _, err := m.Initiate(context.Background(), spec.Spec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if got := m.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after one completed and one failed session, want 0", got)
	}
}
