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

	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
)

// One Award per winner carries every task a round of decisions gave it;
// the tests below pin what must keep holding per task inside that group —
// each fails if the group is settled all-or-nothing.

// groupNet scripts a →t1→ m →t2→ n →t3→ g with t1 and t3 on p1 and t2 on
// p2: the last member's reply decides all three tasks at once, so p1 is
// awarded a group of two and p2 a group of one.
func groupNet(t *testing.T) *fakeNet {
	net := newFakeNet("init")
	net.add("init", &fakeMember{fragments: []*model.Fragment{
		mkFrag(t, "t1", "a", "m"), mkFrag(t, "t2", "m", "n"), mkFrag(t, "t3", "n", "g"),
	}})
	net.add("p1", &fakeMember{capable: map[model.TaskID]bool{"t1": true, "t3": true}, services: 2})
	net.add("p2", &fakeMember{capable: map[model.TaskID]bool{"t2": true}, services: 1})
	return net
}

// oneAttempt is a configuration whose first failed allocation is final, so
// a test sees exactly one round of awards.
func oneAttempt() Config {
	cfg := testConfig()
	cfg.WindowRetries = 0
	cfg.MaxReplans = 0
	return cfg
}

// decisions records Observer.TaskDecided events per task.
type decisions struct {
	mu sync.Mutex
	by map[model.TaskID][]proto.Addr
}

func observeDecisions(cfg *Config) *decisions {
	d := &decisions{by: make(map[model.TaskID][]proto.Addr)}
	cfg.Observer.TaskDecided = func(_ string, task model.TaskID, winner proto.Addr) {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.by[task] = append(d.by[task], winner)
	}
	return d
}

// want fails unless each task was decided exactly once, with the given
// winner ("" = failed).
func (d *decisions) want(t *testing.T, want map[model.TaskID]proto.Addr) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.by) != len(want) {
		t.Errorf("decided tasks = %v, want %v", d.by, want)
	}
	for task, winner := range want {
		if got := d.by[task]; len(got) != 1 || got[0] != winner {
			t.Errorf("TaskDecided(%s) fired with %q, want exactly once with %q", task, got, winner)
		}
	}
}

// taskCancels returns the per-task Cancels sent so far as "task@host",
// sorted.
func taskCancels(f *fakeNet) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, s := range f.sentTo {
		if c, ok := s.body.(proto.Cancel); ok && c.Task != "" {
			out = append(out, fmt.Sprintf("%s@%s", c.Task, s.to))
		}
	}
	slices.Sort(out)
	return out
}

// awards returns the Award calls logged so far.
func awards(f *fakeNet) []fakeCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []fakeCall
	for _, c := range f.log {
		if _, ok := c.body.(proto.Award); ok {
			out = append(out, c)
		}
	}
	return out
}

// TestAwardGroupsByWinner: the decisions one reply produces cost one Award
// per winner, carrying that winner's tasks in the auctioneer's order.
func TestAwardGroupsByWinner(t *testing.T) {
	net := groupNet(t)
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	plan, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	got := awards(net)
	if len(got) != 2 {
		t.Fatalf("%d Award calls for two winners: %v", len(got), got)
	}
	p1, p2 := got[0].body.(proto.Award), got[1].body.(proto.Award)
	if got[0].to != "p1" || p1.Meta.Task != "t1" || len(p1.More) != 1 || p1.More[0].Task != "t3" {
		t.Errorf("first award = %v to %s, want t1+t3 to p1", p1, got[0].to)
	}
	if got[1].to != "p2" || p2.Meta.Task != "t2" || len(p2.More) != 0 {
		t.Errorf("second award = %v to %s, want t2 alone to p2", p2, got[1].to)
	}
	if !p1.More[0].Start.Equal(plan.Metas["t3"].Start) {
		t.Errorf("t3 awarded with window %v, solicited with %v", p1.More[0].Start, plan.Metas["t3"].Start)
	}
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "p1", "t2": "p2", "t3": "p1"})
}

// TestRefusedTaskInGroupFailsAlone: a verdict binds its own task. p1
// refuses t3 and confirms t1 in one ack: t3 alone re-enters the failure
// set, t1 is recorded (so the failed attempt's cleanup cancels it), and a
// refused task is sent no Cancel — the winner freed that slot itself.
func TestRefusedTaskInGroupFailsAlone(t *testing.T) {
	net := groupNet(t)
	net.members["p1"].refuseTask = map[model.TaskID]bool{"t3": true}
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	_, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, ErrAllocationFailed) || !strings.Contains(err.Error(), "[t3]") {
		t.Fatalf("err = %v, want allocation failure naming t3 alone", err)
	}
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "p1", "t2": "p2", "t3": ""})
	if got, want := taskCancels(net), []string{"t1@p1", "t2@p2"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v: the confirmed tasks compensated, the refused one not", got, want)
	}
}

// TestLostAckCancelsEveryTaskOfGroup: an Award whose ack never comes back
// may have committed any of its tasks, so each gets its best-effort Cancel
// and each is decided failed.
func TestLostAckCancelsEveryTaskOfGroup(t *testing.T) {
	net := groupNet(t)
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

// cancelOnAwardNet cancels the session's context the moment an Award
// reaches the given host, and loses that call.
type cancelOnAwardNet struct {
	*fakeNet
	at     proto.Addr
	cancel context.CancelFunc
}

func (c *cancelOnAwardNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if _, ok := body.(proto.Award); ok && to == c.at {
		c.cancel()
		return nil, ctx.Err()
	}
	return c.fakeNet.Call(ctx, to, workflow, body, timeout)
}

// TestCanceledMidAwardCompensatesWholeGroup: an award interrupted by its
// own context may have reached the winner, so every task it carried is
// recorded and the session's cleanup cancels each.
func TestCanceledMidAwardCompensatesWholeGroup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := &cancelOnAwardNet{fakeNet: groupNet(t), at: "p1", cancel: cancel}
	_, err := NewManager(net, oneAttempt()).Initiate(ctx, spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got, want := taskCancels(net.fakeNet), []string{"t1@p1", "t3@p1"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v: the whole interrupted group", got, want)
	}
}

// shortAckNet answers every Award with one verdict, on the first task,
// however many the award carried.
type shortAckNet struct{ *fakeNet }

func (s shortAckNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if award, ok := body.(proto.Award); ok {
		return proto.AwardAck{Verdicts: []proto.Verdict{{Task: award.Meta.Task, OK: true}}}, nil
	}
	return s.fakeNet.Call(ctx, to, workflow, body, timeout)
}

// TestAckShortOfVerdictsIsProtocolViolation: an ack must answer every task
// its award carried; one that does not is an error, not a silent refusal
// of the rest.
func TestAckShortOfVerdictsIsProtocolViolation(t *testing.T) {
	_, err := NewManager(shortAckNet{groupNet(t)}, oneAttempt()).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err == nil || !strings.Contains(err.Error(), `award to "p1": 1 verdicts on 2 tasks`) {
		t.Fatalf("err = %v, want the short ack reported", err)
	}
}

// cancelsAtAwardNet notes, at each Award call, which per-task Cancels had
// already gone out.
type cancelsAtAwardNet struct {
	*fakeNet
	before map[proto.Addr][]string
}

func (c *cancelsAtAwardNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if _, ok := body.(proto.Award); ok {
		c.before[to] = taskCancels(c.fakeNet)
	}
	return c.fakeNet.Call(ctx, to, workflow, body, timeout)
}

// TestLosersReleasedBeforeAward: every loser of a round of decisions is
// sent its Cancel before the first Award's round trip starts, so a
// contended slot is not held across it.
func TestLosersReleasedBeforeAward(t *testing.T) {
	fake := groupNet(t)
	// p3 offers everything but more services than p1 and p2, so it bids on
	// all three tasks and loses each.
	fake.add("p3", &fakeMember{capable: map[model.TaskID]bool{"t1": true, "t2": true, "t3": true}, services: 3})
	net := &cancelsAtAwardNet{fakeNet: fake, before: make(map[proto.Addr][]string)}
	if _, err := NewManager(net, oneAttempt()).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err != nil {
		t.Fatal(err)
	}
	want := []string{"t1@p3", "t2@p3", "t3@p3"}
	for _, winner := range []proto.Addr{"p1", "p2"} {
		if got := net.before[winner]; !slices.Equal(got, want) {
			t.Errorf("Cancels out before the award to %s = %v, want %v", winner, got, want)
		}
	}
}

// TestDistributeGroupsByExecutor: Execute sends each executor one plan
// request carrying all its segments, and a failed request names the host
// and the tasks it carried.
func TestDistributeGroupsByExecutor(t *testing.T) {
	net := groupNet(t)
	m := NewManager(net, oneAttempt())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	net.clearLog()
	// Events for a workflow not yet executing are dropped as stale, so
	// they wait for the first plan segment: distribution begins once the
	// execution is registered. One buffer slot per segment of the plan.
	segs := make(chan proto.PlanSegment, 3)
	net.mu.Lock()
	net.segs = segs
	net.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-segs
		for _, task := range []model.TaskID{"t1", "t2", "t3"} {
			m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: task})
		}
		m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g"})
	}()
	if _, err := m.Execute(ctx, plan, nil); err != nil {
		t.Fatal(err)
	}
	cancel()
	net.mu.Lock()
	var got []string
	for _, c := range net.log {
		if plan, ok := c.body.(proto.Plan); ok {
			var tasks []model.TaskID
			for _, seg := range plan.Segments {
				tasks = append(tasks, seg.Task)
			}
			got = append(got, fmt.Sprintf("%s%v", c.to, tasks))
		}
	}
	net.segs = nil
	net.mu.Unlock()
	if want := []string{"p1[t1 t3]", "p2[t2]"}; !slices.Equal(got, want) {
		t.Errorf("plan requests = %v, want %v", got, want)
	}

	// A second plan, with p1 gone before distribution.
	plan, err = m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	net.setDown("p1")
	_, err = m.Execute(context.Background(), plan, nil)
	if err == nil || !strings.Contains(err.Error(), `["t1" "t3"] to "p1"`) {
		t.Errorf("err = %v, want the host and the tasks its plan request carried", err)
	}
}
