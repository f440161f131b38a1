package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/testutil"
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
		if c, ok := s.body.(proto.Cancel); ok {
			for _, task := range c.Tasks {
				out = append(out, fmt.Sprintf("%s@%s", task, s.to))
			}
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

// TestRefusedTaskOfThreeFailsAlone: an ack names only its refusals, and
// every task it does not name is confirmed. p1 wins all three tasks in one
// award and refuses t2: t2 alone re-enters the failure set, t1 and t3 are
// recorded (so the failed attempt's cleanup cancels them), and t2 is sent
// no Cancel.
func TestRefusedTaskOfThreeFailsAlone(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{fragments: []*model.Fragment{
		mkFrag(t, "t1", "a", "m"), mkFrag(t, "t2", "m", "n"), mkFrag(t, "t3", "n", "g"),
	}})
	net.add("p1", &fakeMember{capable: map[model.TaskID]bool{"t1": true, "t2": true, "t3": true}, services: 3,
		refuseTask: map[model.TaskID]bool{"t2": true}})
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	_, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, ErrAllocationFailed) || !strings.Contains(err.Error(), "[t2]") {
		t.Fatalf("err = %v, want allocation failure naming t2 alone", err)
	}
	if got := awards(net); len(got) != 1 || len(got[0].body.(proto.Award).More) != 2 {
		t.Fatalf("awards = %v, want one of three tasks", got)
	}
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "p1", "t2": "", "t3": "p1"})
	if got, want := taskCancels(net), []string{"t1@p1", "t3@p1"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v: the confirmed tasks compensated, the refused one not", got, want)
	}
}

// scriptedAckNet answers every Award with an ack refusing refused.
type scriptedAckNet struct {
	*fakeNet
	refused []proto.Verdict
}

func (s scriptedAckNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if _, ok := body.(proto.Award); ok {
		return proto.AwardAck{Refused: s.refused}, nil
	}
	return s.fakeNet.Call(ctx, to, workflow, body, timeout)
}

// TestAckRefusingUnawardedTaskIsProtocolViolation: an ack may refuse only
// tasks its award carried, each once; anything else is an error, not a
// refusal the engine guesses the meaning of. p1 is awarded t1 and t3.
func TestAckRefusingUnawardedTaskIsProtocolViolation(t *testing.T) {
	for _, c := range []struct {
		name    string
		refused []proto.Verdict
		want    string
	}{
		{"unawarded", []proto.Verdict{{Task: "t2"}}, `award to "p1": refuses "t2", which it was not awarded`},
		{"twice", []proto.Verdict{{Task: "t3"}, {Task: "t3"}}, `award to "p1": refuses "t3" twice`},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := scriptedAckNet{groupNet(t), c.refused}
			cfg := oneAttempt()
			seen := observeDecisions(&cfg)
			_, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
			seen.mu.Lock()
			defer seen.mu.Unlock()
			for _, task := range []model.TaskID{"t1", "t3"} {
				if got := seen.by[task]; len(got) != 0 {
					t.Errorf("%s decided %q on a malformed ack, want undecided", task, got)
				}
			}
		})
	}
}

// TestOneVerdictPerTaskPerTry: Observer.TaskDecided reports every task of a
// try once, when the try is over, however it was decided, and a try that
// ends in an error reports none, not even the wins confirmed before it.
// groupNet awards t1 and t3 to p1, then t2 to p2. A lost award and a
// refusal decided in a try that fails are pinned by
// TestLostAckCancelsEveryTaskOfGroup and TestRefusedTaskInGroupFailsAlone.
func TestOneVerdictPerTaskPerTry(t *testing.T) {
	for _, c := range []struct {
		name    string
		script  func(*fakeNet) Messenger
		retries int
		want    map[model.TaskID][]proto.Addr
		wantErr string
	}{
		{"no-offer", func(net *fakeNet) Messenger {
			// Every member describes itself and none offers a task, so no
			// call for bids goes out.
			net.describes = true
			clear(net.members["p1"].capable)
			clear(net.members["p2"].capable)
			return net
		}, 0, map[model.TaskID][]proto.Addr{"t1": {""}, "t2": {""}, "t3": {""}}, "[t1 t2 t3]"},
		{"retried", func(net *fakeNet) Messenger {
			net.members["p1"].refuseTask = map[model.TaskID]bool{"t3": true}
			return net
		}, 1, map[model.TaskID][]proto.Addr{"t1": {"p1", "p1"}, "t2": {"p2", "p2"}, "t3": {"", ""}}, "[t3]"},
		{"protocol-error", func(net *fakeNet) Messenger {
			// p1 refuses t1 and confirms t3; p2's ack refuses t1 too, which
			// its award never carried.
			return scriptedAckNet{net, []proto.Verdict{{Task: "t1"}}}
		}, 0, map[model.TaskID][]proto.Addr{}, `award to "p2": refuses "t1", which it was not awarded`},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := groupNet(t)
			cfg := oneAttempt()
			cfg.Feasibility = false // a task nobody offers stays in the workflow
			cfg.WindowRetries = c.retries
			seen := observeDecisions(&cfg)
			_, err := NewManager(c.script(net), cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want one naming %s", err, c.wantErr)
			}
			seen.mu.Lock()
			defer seen.mu.Unlock()
			if !reflect.DeepEqual(seen.by, c.want) {
				t.Errorf("verdicts = %v, want %v", seen.by, c.want)
			}
			if c.name == "no-offer" && len(conversation(net, "call-for-bids-batch")) != 0 {
				t.Errorf("calls for bids went out: %v", conversation(net, "call-for-bids-batch"))
			}
		})
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

// TestEveryLosingBidderIsReleased: a call for bids that outlasts the bid
// window decides nothing early. p2 answers after p1's bid has lapsed, and
// p3 after p2; the auction still ends with p3's answer, so p1 wins once
// and both p2 and p3 are sent the Cancel that frees their holds.
func TestEveryLosingBidderIsReleased(t *testing.T) {
	sim := clock.NewSim(time.Unix(1000, 0))
	gate := make(chan struct{})
	net := newFakeNet("init")
	net.clk = sim
	net.add("init", &fakeMember{fragments: []*model.Fragment{mkFrag(t, "t1", "a", "g")}})
	for _, p := range []proto.Addr{"p1", "p2", "p3"} {
		net.add(p, &fakeMember{capable: map[model.TaskID]bool{"t1": true}, services: 1})
	}
	net.members["p2"].blockCFB = map[model.TaskID]chan struct{}{"t1": gate}
	cfg := oneAttempt()
	seen := observeDecisions(&cfg)
	done := make(chan error, 1)
	go func() {
		_, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
		done <- err
	}()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		net.mu.Lock()
		blocked := net.blocked
		net.mu.Unlock()
		if blocked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the call for bids to p2 never blocked")
		}
	}
	// The fake's bids lapse after one second: p1's has, before p2 answers.
	sim.Advance(2 * time.Second)
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "p1"})
	if got, want := taskCancels(net), []string{"t1@p2", "t1@p3"}; !slices.Equal(got, want) {
		t.Errorf("cancels = %v, want %v: every losing bidder released", got, want)
	}
}

// TestDistributeGroupsByExecutor: a repair sends each kept executor that
// feeds a re-homed task one plan request carrying all its segments, and a
// failed request names the host and the tasks it carried. The chain
// a → t1 → … → t6 → g runs t1 and t3 on p1, t5 on p2 and the rest on p3,
// which loses the leases of t2, t4 and t6.
func TestDistributeGroupsByExecutor(t *testing.T) {
	net := newFakeNet("init")
	var frags []*model.Fragment
	for i := 1; i <= 6; i++ {
		in, out := fmt.Sprintf("m%d", i-1), fmt.Sprintf("m%d", i)
		if i == 1 {
			in = "a"
		}
		if i == 6 {
			out = "g"
		}
		frags = append(frags, mkFrag(t, fmt.Sprintf("t%d", i), in, out))
	}
	net.add("init", &fakeMember{fragments: frags})
	net.add("p1", &fakeMember{capable: map[model.TaskID]bool{"t1": true, "t3": true}, services: 2})
	net.add("p2", &fakeMember{capable: map[model.TaskID]bool{"t5": true}, services: 1})
	net.add("p3", &fakeMember{capable: map[model.TaskID]bool{"t2": true, "t4": true, "t6": true}, services: 3})
	cfg := repairConfig()
	events := repairObserver(&cfg)
	m := NewManager(net, cfg)
	execute := func() (*Plan, <-chan struct{}, func() (*Report, error)) {
		plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
		if err != nil {
			t.Fatal(err)
		}
		net.clearLog()
		done, join := startExecution(m, plan)
		waitTrigger(t, net)
		net.loseLease("p3", "t2", "t4", "t6")
		return plan, done, join
	}

	plan, done, join := execute()
	waitRepair(t, events)
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
	net.mu.Unlock()
	if want := []string{"p1[t1 t3]", "p2[t5]"}; !slices.Equal(got, want) {
		t.Errorf("plan requests = %v, want %v", got, want)
	}
	m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g"})
	<-done
	if report, err := join(); err != nil || !report.Completed {
		t.Fatalf("report = %+v, err = %v", report, err)
	}

	// A second execution, whose plan request to p1 fails.
	net.mu.Lock()
	net.members["p1"].dropPlan = true
	net.mu.Unlock()
	_, done, join = execute()
	<-done
	report, err := join()
	if err != nil || report.Completed || len(report.Failures) != 1 ||
		!strings.Contains(report.Failures[0], `["t1" "t3"] to "p1"`) {
		t.Errorf("report = %+v, err = %v, want a failure naming the host and the tasks its plan request carried", report, err)
	}
}

// TestAwardCarriesRoutes: the sweep decides every task before the first
// award goes out, so each winner's award carries where its tasks' outputs
// go — to the executor of the consuming task, the goal to the initiator —
// and Execute on the initiator sends no plan request. It only injects the
// trigger.
func TestAwardCarriesRoutes(t *testing.T) {
	net := groupNet(t)
	m := NewManager(net, oneAttempt())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[proto.Addr]string)
	for _, c := range awards(net) {
		got[c.to] = fmt.Sprint(c.body.(proto.Award).Routes)
	}
	want := map[proto.Addr]string{"p1": "[{m p2} {g init}]", "p2": "[{n p1}]"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("award routes = %v, want %v", got, want)
	}
	if plan.Initiator != "init" {
		t.Errorf("plan allocated by %q, want init", plan.Initiator)
	}

	net.clearLog()
	go func() {
		for {
			m.mu.Lock()
			_, running := m.executions[plan.WorkflowID]
			m.mu.Unlock()
			if running {
				break
			}
			time.Sleep(time.Millisecond)
		}
		for _, task := range []model.TaskID{"t1", "t2", "t3"} {
			m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: task})
		}
		m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g"})
	}()
	if _, err := m.Execute(context.Background(), plan, nil); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	if len(net.log) != 0 {
		t.Errorf("Execute called %v, want nothing: the plan rode on the awards", net.log)
	}
	var triggers []string
	for _, s := range net.sentTo {
		if lt, ok := s.body.(proto.LabelTransfer); ok {
			triggers = append(triggers, fmt.Sprintf("%s@%s", lt.Label, s.to))
		}
	}
	if !slices.Equal(triggers, []string{"a@p1"}) {
		t.Errorf("triggers injected %v, want a to t1's executor p1", triggers)
	}
}

// chainWorkflow is the workflow l0 →t0→ l1 →t1→ … →t(n-1)→ ln.
func chainWorkflow(t *testing.T, n int) *model.Workflow {
	t.Helper()
	tasks := make([]model.Task, n)
	for i := range tasks {
		tasks[i] = model.Task{
			ID: model.TaskID(fmt.Sprintf("t%d", i)), Mode: model.Conjunctive,
			Inputs: lbl(fmt.Sprintf("l%d", i)), Outputs: lbl(fmt.Sprintf("l%d", i+1)),
		}
	}
	w, err := model.NewWorkflowOfTasks(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

var metasSink []proto.TaskMeta

// TestTaskMetasAllocBound: the metadata of an 8-task session — the
// sim_serial path length — is the meta slice and one label slab. 18 while
// every task's label lists were cloned from the workflow and then shared.
func TestTaskMetasAllocBound(t *testing.T) {
	m := NewManager(newFakeNet("init"), testConfig())
	w := chainWorkflow(t, 8)
	ids := w.TopoOrder()
	testutil.AllocBound(t, 2, func() {
		metasSink = m.taskMetas(w, ids, 0)
	})
	if len(metasSink) != 8 || metasSink[7].Outputs[0] != "l8" {
		t.Fatalf("metas = %v", metasSink)
	}
}

// TestUnplacedAllocFree: allocate's order step reads the workflow's
// cached order into its 16-task stack array, so a 16-task Initiate orders
// its tasks without allocating. 1 while the step copied TopoOrder to
// delete the placed tasks from the copy. A repair keeps only the tasks
// its placed map lacks, in order.
func TestUnplacedAllocFree(t *testing.T) {
	w := chainWorkflow(t, 16)
	n := 0
	testutil.AllocBound(t, 0, func() {
		var buf [16]model.TaskID
		n = len(unplaced(buf[:0], w, nil))
	})
	if n != 16 {
		t.Fatalf("ordered %d tasks, want 16", n)
	}
	placed := map[model.TaskID]proto.Addr{"t0": "p", "t2": "p"}
	if got := unplaced(nil, chainWorkflow(t, 4), placed); !slices.Equal(got, []model.TaskID{"t1", "t3"}) {
		t.Fatalf("unplaced = %v, want [t1 t3]", got)
	}
}

// TestTaskMetasDoNotShareTails: every label list of a session's metas is a
// window of one slab, capped at its own end, so appending to one task's
// inputs or outputs copies it and leaves the next list intact.
func TestTaskMetasDoNotShareTails(t *testing.T) {
	m := NewManager(newFakeNet("init"), testConfig())
	w := chainWorkflow(t, 3)
	metas := m.taskMetas(w, w.TopoOrder(), 0)
	_ = append(metas[0].Inputs, "x")
	_ = append(metas[0].Outputs, "y")
	if !slices.Equal(metas[0].Outputs, lbl("l1")) || !slices.Equal(metas[1].Inputs, lbl("l1")) {
		t.Fatalf("after appending to t0's lists: t0 outputs %v, t1 inputs %v; want [l1] and [l1]",
			metas[0].Outputs, metas[1].Inputs)
	}
	if task, _ := w.Task("t0"); !slices.Equal(task.Outputs, lbl("l1")) {
		t.Fatalf("the workflow's t0 outputs became %v", task.Outputs)
	}
}

// TestAwardSlabsDoNotShareTails: the awards of one allocation carve their
// metas and routes from one slab each, every winner's capped at its own
// end: appending to p1's routes or tasks leaves p2's award as sent.
func TestAwardSlabsDoNotShareTails(t *testing.T) {
	net := groupNet(t)
	if _, err := NewManager(net, oneAttempt()).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err != nil {
		t.Fatal(err)
	}
	got := awards(net)
	if len(got) != 2 {
		t.Fatalf("%d Award calls for two winners: %v", len(got), got)
	}
	p1, p2 := got[0].body.(proto.Award), got[1].body.(proto.Award)
	if cap(p1.More) != len(p1.More) || cap(p1.Routes) != len(p1.Routes) {
		t.Errorf("p1's award: more %d of %d, routes %d of %d; want each capped at its length",
			len(p1.More), cap(p1.More), len(p1.Routes), cap(p1.Routes))
	}
	want := slices.Clone(p2.Routes)
	_ = append(p1.Routes, proto.Route{Label: "x", To: "x"})
	if !slices.Equal(p2.Routes, want) {
		t.Errorf("after appending to p1's routes p2's are %v, want %v", p2.Routes, want)
	}
}
