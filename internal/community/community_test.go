package community

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/testutil"
	"openwf/internal/trace"
	"openwf/internal/transport/inmem"
)

// newTestCommunity builds a community with the shared leak checks folded
// in: the goroutine count must return to baseline after the community
// closes, and every host's schedule manager must drain to zero
// outstanding firm-bid holds once the test settles (losing bidders'
// reservations expire with their bid windows; commitments are plans'
// legitimate output and are not counted).
func newTestCommunity(t *testing.T, opts Options, specs ...HostSpec) *Community {
	t.Helper()
	testutil.CheckGoroutines(t)
	c, err := New(opts, specs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	testutil.CheckNoHolds(t, 5*time.Second, testutil.HoldReporterFunc(c.TotalHolds))
	return c
}

func lbl(ls ...string) []model.LabelID {
	out := make([]model.LabelID, len(ls))
	for i, l := range ls {
		out[i] = model.LabelID(l)
	}
	return out
}

func ctask(id string, ins, outs []model.LabelID) model.Task {
	return model.Task{ID: model.TaskID(id), Mode: model.Conjunctive, Inputs: ins, Outputs: outs}
}

func frag(t *testing.T, name string, tasks ...model.Task) *model.Fragment {
	t.Helper()
	f, err := model.NewFragment(name, tasks...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func svc(task string, dur time.Duration) service.Registration {
	return service.Registration{
		Descriptor: service.Descriptor{Task: model.TaskID(task), Duration: dur, Specialization: 0.5},
	}
}

// ctxTimeout returns a context bounded by d, canceled at test cleanup.
func ctxTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// testEngineConfig keeps integration tests fast: short windows, prompt
// starts.
func testEngineConfig() *engine.Config {
	cfg := engine.DefaultConfig()
	cfg.StartDelay = 300 * time.Millisecond
	cfg.TaskWindow = 30 * time.Millisecond
	// Generous: the timeout only trips when something is genuinely
	// broken, and 2s proved reachable on a loaded 1-CPU runner under the
	// race detector (a starved endpoint pump looks like an unreachable
	// member and fails construction spuriously).
	cfg.CallTimeout = 10 * time.Second
	return &cfg
}

// cateringSpecs builds the paper's catering office (§2.1, Figure 1):
// a manager (initiator), the master chef, kitchen staff, and wait staff,
// each carrying their own knowhow and services.
func cateringSpecs(t *testing.T, withChef, withWaiter bool) []HostSpec {
	t.Helper()
	manager := HostSpec{ID: "manager"}
	kitchen := HostSpec{
		ID: "kitchen",
		Fragments: []*model.Fragment{
			frag(t, "omelets-setup", ctask("set out ingredients", lbl("breakfast ingredients"), lbl("omelet bar setup"))),
			frag(t, "lunch-prep", ctask("prepare soup and salad", lbl("lunch ingredients"), lbl("lunch prepared"))),
			frag(t, "pancakes",
				ctask("make pancakes", lbl("breakfast ingredients"), lbl("buffet items prepared")),
				ctask("serve breakfast buffet", lbl("buffet items prepared"), lbl("breakfast served"))),
		},
		Services: []service.Registration{
			svc("set out ingredients", time.Millisecond),
			svc("prepare soup and salad", time.Millisecond),
			svc("make pancakes", time.Millisecond),
		},
	}
	chef := HostSpec{
		ID: "chef",
		Fragments: []*model.Fragment{
			frag(t, "omelets-cook", ctask("cook omelets", lbl("omelet bar setup"), lbl("breakfast served"))),
		},
		Services: []service.Registration{svc("cook omelets", time.Millisecond)},
	}
	waiter := HostSpec{
		ID: "waiter",
		Fragments: []*model.Fragment{
			frag(t, "lunch-tables", ctask("serve tables", lbl("lunch prepared"), lbl("lunch served"))),
			frag(t, "lunch-buffet", ctask("serve buffet", lbl("lunch prepared"), lbl("lunch served"))),
		},
		Services: []service.Registration{
			svc("serve tables", time.Millisecond),
			svc("serve buffet", time.Millisecond),
			svc("serve breakfast buffet", time.Millisecond),
		},
	}
	specs := []HostSpec{manager, kitchen}
	if withChef {
		specs = append(specs, chef)
	}
	if withWaiter {
		specs = append(specs, waiter)
	} else {
		// Without wait staff, the buffet knowhow is still in the
		// office (the chef knows it) but nobody can serve tables.
		chefExtra := frag(t, "lunch-buffet", ctask("serve buffet", lbl("lunch prepared"), lbl("lunch served")))
		tablesKnow := frag(t, "lunch-tables", ctask("serve tables", lbl("lunch prepared"), lbl("lunch served")))
		specs[1].Fragments = append(specs[1].Fragments, chefExtra, tablesKnow)
		specs[1].Services = append(specs[1].Services,
			svc("serve buffet", time.Millisecond),
			svc("serve breakfast buffet", time.Millisecond))
	}
	return specs
}

var cateringSpec = spec.Must(
	lbl("breakfast ingredients", "lunch ingredients"),
	lbl("breakfast served", "lunch served"),
)

func TestCateringEndToEnd(t *testing.T) {
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, cateringSpecs(t, true, true)...)

	plan, err := c.Initiate(context.Background(), "manager", cateringSpec)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if !cateringSpec.Satisfies(plan.Workflow) {
		t.Fatalf("plan violates spec:\n%v", plan.Workflow)
	}
	if len(plan.Allocations) != plan.Workflow.NumTasks() {
		t.Fatalf("allocations = %d, tasks = %d", len(plan.Allocations), plan.Workflow.NumTasks())
	}
	// Every allocated host must actually offer the service.
	for task, hostID := range plan.Allocations {
		h, ok := c.Host(hostID)
		if !ok {
			t.Fatalf("allocation to unknown host %q", hostID)
		}
		if _, can := h.Services.CanPerform(task); !can {
			t.Errorf("task %q allocated to %q which lacks the service", task, hostID)
		}
	}

	report, err := c.Execute(ctxTimeout(t, 10*time.Second), "manager", plan, nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !report.Completed {
		t.Fatalf("execution incomplete: %+v", report)
	}
	if len(report.Goals) != 2 {
		t.Errorf("goals delivered = %d, want 2", len(report.Goals))
	}
	if report.TasksDone != plan.Workflow.NumTasks() {
		t.Errorf("tasks done = %d, want %d", report.TasksDone, plan.Workflow.NumTasks())
	}
}

// TestCateringChefAbsent: without the chef, the omelet fragment is never
// collected; breakfast still gets served another way (§2.1).
func TestCateringChefAbsent(t *testing.T) {
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, cateringSpecs(t, false, true)...)

	plan, err := c.Initiate(context.Background(), "manager", cateringSpec)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if _, ok := plan.Workflow.Task("cook omelets"); ok {
		t.Error("omelet path selected although the chef is out of the office")
	}
	if _, ok := plan.Workflow.Task("make pancakes"); !ok {
		t.Errorf("pancake alternative not selected:\n%v", plan.Workflow)
	}
}

// TestCateringWaitStaffAbsent: the knowhow for table service is present,
// but no one can perform it; feasibility filtering must steer construction
// to buffet service (§2.1).
func TestCateringWaitStaffAbsent(t *testing.T) {
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, cateringSpecs(t, true, false)...)

	plan, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("lunch ingredients"), lbl("lunch served")))
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if _, ok := plan.Workflow.Task("serve tables"); ok {
		t.Error("serve tables selected although nobody can perform it")
	}
	if _, ok := plan.Workflow.Task("serve buffet"); !ok {
		t.Errorf("serve buffet not selected:\n%v", plan.Workflow)
	}
}

func TestInitiateNoSolution(t *testing.T) {
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, cateringSpecs(t, true, true)...)

	_, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("breakfast ingredients"), lbl("world peace")))
	if err == nil {
		t.Fatal("Initiate succeeded for unreachable goal")
	}
}

func TestInitiateUnknownHost(t *testing.T) {
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, cateringSpecs(t, true, true)...)
	if _, err := c.Initiate(context.Background(), "ghost", cateringSpec); err == nil {
		t.Fatal("Initiate at unknown host succeeded")
	}
	if _, err := c.Execute(ctxTimeout(t, time.Second), "ghost", &engine.Plan{}, nil); err == nil {
		t.Fatal("Execute at unknown host succeeded")
	}
}

// TestAnyParticipantMayInitiate: initiation is not special to one host.
func TestAnyParticipantMayInitiate(t *testing.T) {
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, cateringSpecs(t, true, true)...)
	plan, err := c.Initiate(context.Background(), "chef", spec.Must(lbl("lunch ingredients"), lbl("lunch served")))
	if err != nil {
		t.Fatalf("Initiate from chef: %v", err)
	}
	if plan.Workflow.NumTasks() == 0 {
		t.Error("empty workflow")
	}
}

// TestConcurrentWorkflows: the architecture supports multiple open
// workflows constructed concurrently in the same community (§4.2).
func TestConcurrentWorkflows(t *testing.T) {
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, cateringSpecs(t, true, true)...)

	type result struct {
		plan *engine.Plan
		err  error
	}
	breakfast := spec.Must(lbl("breakfast ingredients"), lbl("breakfast served"))
	lunch := spec.Must(lbl("lunch ingredients"), lbl("lunch served"))
	ch1 := make(chan result, 1)
	ch2 := make(chan result, 1)
	go func() {
		p, err := c.Initiate(context.Background(), "manager", breakfast)
		ch1 <- result{p, err}
	}()
	go func() {
		p, err := c.Initiate(context.Background(), "chef", lunch)
		ch2 <- result{p, err}
	}()
	r1, r2 := <-ch1, <-ch2
	if r1.err != nil {
		t.Fatalf("breakfast workflow: %v", r1.err)
	}
	if r2.err != nil {
		t.Fatalf("lunch workflow: %v", r2.err)
	}
	if !breakfast.Satisfies(r1.plan.Workflow) || !lunch.Satisfies(r2.plan.Workflow) {
		t.Error("concurrent workflows violated their specs")
	}
}

// TestReplanAfterUnallocatableTask: when the only provider of a selected
// task is at capacity, the engine must replan onto an alternative.
func TestReplanAfterUnallocatableTask(t *testing.T) {
	specs := cateringSpecs(t, true, true)
	// The waiter will accept no work at all.
	for i := range specs {
		if specs[i].ID == "waiter" {
			specs[i].Prefs.Willing = func(proto.TaskMeta) bool { return false }
		}
	}
	// Kitchen can serve the buffet too (alternative provider).
	for i := range specs {
		if specs[i].ID == "kitchen" {
			specs[i].Services = append(specs[i].Services, svc("serve buffet", time.Millisecond))
		}
	}
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, specs...)

	plan, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("lunch ingredients"), lbl("lunch served")))
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if _, ok := plan.Workflow.Task("serve buffet"); !ok {
		t.Errorf("expected buffet alternative, got:\n%v", plan.Workflow)
	}
	if host := plan.Allocations["serve buffet"]; host != "kitchen" {
		t.Errorf("serve buffet allocated to %q, want kitchen", host)
	}
}

// TestAllocationFailsWhenTrulyImpossible: if nobody can perform any
// alternative, Initiate must fail with a helpful error rather than hang.
func TestAllocationFailsWhenTrulyImpossible(t *testing.T) {
	specs := cateringSpecs(t, true, true)
	for i := range specs {
		specs[i].Prefs.Willing = func(proto.TaskMeta) bool { return false }
	}
	cfg := testEngineConfig()
	cfg.Feasibility = false // capability exists; unwillingness only shows at auction
	c := newTestCommunity(t, Options{Engine: cfg}, specs...)

	_, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("lunch ingredients"), lbl("lunch served")))
	if err == nil {
		t.Fatal("Initiate succeeded although every host is unwilling")
	}
	if !errors.Is(err, engine.ErrAllocationFailed) && !strings.Contains(err.Error(), "no feasible workflow") {
		t.Errorf("err = %v, want allocation failure", err)
	}
}

// TestTCPCommunity runs the catering scenario over real sockets.
func TestTCPCommunity(t *testing.T) {
	c := newTestCommunity(t, Options{Transport: TCP, Engine: testEngineConfig()}, cateringSpecs(t, true, true)...)

	plan, err := c.Initiate(context.Background(), "manager", cateringSpec)
	if err != nil {
		t.Fatalf("Initiate over TCP: %v", err)
	}
	report, err := c.Execute(ctxTimeout(t, 10*time.Second), "manager", plan, nil)
	if err != nil {
		t.Fatalf("Execute over TCP: %v", err)
	}
	if !report.Completed {
		t.Fatalf("execution incomplete over TCP: %+v", report)
	}
}

func TestCommunityValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("empty community accepted")
	}
	if _, err := New(Options{}, HostSpec{ID: "a"}, HostSpec{ID: "a"}); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := New(Options{Transport: Transport(99)}, HostSpec{ID: "a"}); err == nil {
		t.Error("unknown transport accepted")
	}
}

func TestTriggersCarryData(t *testing.T) {
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, cateringSpecs(t, true, true)...)

	s := spec.Must(lbl("lunch ingredients"), lbl("lunch served"))
	plan, err := c.Initiate(context.Background(), "manager", s)
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Execute(ctxTimeout(t, 10*time.Second), "manager", plan, map[model.LabelID][]byte{
		"lunch ingredients": []byte("12 boxes of greens"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("incomplete: %+v", report)
	}
	if _, ok := report.Goals["lunch served"]; !ok {
		t.Error("goal data missing")
	}
}

// TestPartitionedHostKnowledgeUnavailable: when the chef is partitioned
// away mid-community, its fragments cannot be collected and an
// alternative is chosen — the same outcome as the chef being out of the
// office, reached through network failure instead of absence.
func TestPartitionedHostKnowledgeUnavailable(t *testing.T) {
	cfg := testEngineConfig()
	cfg.CallTimeout = 150 * time.Millisecond // partitioned calls time out quickly
	c := newTestCommunity(t, Options{Engine: cfg}, cateringSpecs(t, true, true)...)

	// Cut the chef off from everyone else.
	c.Network().SetPartition(
		[]proto.Addr{"manager", "kitchen", "waiter"},
		[]proto.Addr{"chef"},
	)
	plan, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("breakfast ingredients"), lbl("breakfast served")))
	if err != nil {
		t.Fatalf("Initiate with partition: %v", err)
	}
	if _, ok := plan.Workflow.Task("cook omelets"); ok {
		t.Error("partitioned chef's knowhow used")
	}
	if _, ok := plan.Workflow.Task("make pancakes"); !ok {
		t.Errorf("alternative not selected:\n%v", plan.Workflow)
	}

	// Heal the partition: the omelet path is available again.
	c.Network().SetPartition()
	plan2, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("breakfast ingredients"), lbl("breakfast served")))
	if err != nil {
		t.Fatalf("Initiate after heal: %v", err)
	}
	if plan2.Workflow.NumTasks() == 0 {
		t.Error("empty workflow after heal")
	}
}

// TestParallelQueryCommunity: broadcast queries produce the same outcome
// as pairwise over a real (simulated) network.
func TestParallelQueryCommunity(t *testing.T) {
	cfg := testEngineConfig()
	cfg.ParallelQuery = true
	c := newTestCommunity(t, Options{Engine: cfg}, cateringSpecs(t, true, true)...)
	plan, err := c.Initiate(context.Background(), "manager", cateringSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !cateringSpec.Satisfies(plan.Workflow) {
		t.Fatalf("spec unsatisfied:\n%v", plan.Workflow)
	}
}

// TestInitiateOverLatentNetwork: the 802.11g model slows things down but
// changes nothing semantically.
func TestInitiateOverLatentNetwork(t *testing.T) {
	c := newTestCommunity(t, Options{
		Engine:    testEngineConfig(),
		LinkModel: inmem.Wireless(500*time.Microsecond, 100*time.Microsecond, 54e6),
		Seed:      7,
	}, cateringSpecs(t, true, true)...)
	plan, err := c.Initiate(context.Background(), "manager", cateringSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != plan.Workflow.NumTasks() {
		t.Fatal("incomplete allocation over latent network")
	}
}

// TestFullCollectionCommunity: the §3.1 baseline (gather everything up
// front) produces a satisfying workflow too, collecting every fragment.
func TestFullCollectionCommunity(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Incremental = false
	c := newTestCommunity(t, Options{Engine: cfg}, cateringSpecs(t, true, true)...)
	plan, err := c.Initiate(context.Background(), "manager", cateringSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !cateringSpec.Satisfies(plan.Workflow) {
		t.Fatalf("spec unsatisfied:\n%v", plan.Workflow)
	}
	// Full collection gathered at least as many fragments as the
	// incremental engine would have.
	if plan.Construction.FragmentsCollected < 6 {
		t.Errorf("FragmentsCollected = %d", plan.Construction.FragmentsCollected)
	}
}

// TestExecutionFailureReported: a service that fails must surface in the
// report, not hang the initiator.
func TestExecutionFailureReported(t *testing.T) {
	specs := cateringSpecs(t, true, true)
	for i := range specs {
		if specs[i].ID != "kitchen" {
			continue
		}
		for j := range specs[i].Services {
			if specs[i].Services[j].Descriptor.Task == "prepare soup and salad" {
				specs[i].Services[j].Fn = func(service.Invocation) (service.Outputs, error) {
					return nil, errors.New("the stove is broken")
				}
			}
		}
	}
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, specs...)
	plan, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("lunch ingredients"), lbl("lunch served")))
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Execute(ctxTimeout(t, 10*time.Second), "manager", plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed {
		t.Error("failed execution reported completed")
	}
	if len(report.Failures) == 0 || !strings.Contains(report.Failures[0], "stove") {
		t.Errorf("Failures = %v", report.Failures)
	}
}

// TestConjunctiveFanInAcrossHosts: a conjunctive task whose two inputs
// are produced on two different hosts must receive both label transfers
// before executing, and its output must combine them.
func TestConjunctiveFanInAcrossHosts(t *testing.T) {
	combine := func(inv service.Invocation) (service.Outputs, error) {
		merged := append(append([]byte{}, inv.Inputs["left"]...), inv.Inputs["right"]...)
		return service.Outputs{"combined": merged}, nil
	}
	hosts := []HostSpec{
		{ID: "asker"},
		{
			ID: "left-maker",
			Fragments: []*model.Fragment{
				frag(t, "left-know", ctask("make left", lbl("seed"), lbl("left"))),
			},
			Services: []service.Registration{{
				Descriptor: service.Descriptor{Task: "make left", Specialization: 0.5},
				Fn: func(service.Invocation) (service.Outputs, error) {
					return service.Outputs{"left": []byte("L")}, nil
				},
			}},
		},
		{
			ID: "right-maker",
			Fragments: []*model.Fragment{
				frag(t, "right-know", ctask("make right", lbl("seed"), lbl("right"))),
			},
			Services: []service.Registration{{
				Descriptor: service.Descriptor{Task: "make right", Specialization: 0.5},
				Fn: func(service.Invocation) (service.Outputs, error) {
					return service.Outputs{"right": []byte("R")}, nil
				},
			}},
		},
		{
			ID: "combiner",
			Fragments: []*model.Fragment{
				frag(t, "combine-know", ctask("combine", lbl("left", "right"), lbl("combined"))),
			},
			Services: []service.Registration{{
				Descriptor: service.Descriptor{Task: "combine", Specialization: 0.5},
				Fn:         combine,
			}},
		},
	}
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, hosts...)

	plan, err := c.Initiate(context.Background(), "asker", spec.Must(lbl("seed"), lbl("combined")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.NumTasks() != 3 {
		t.Fatalf("workflow:\n%v", plan.Workflow)
	}
	report, err := c.Execute(ctxTimeout(t, 10*time.Second), "asker", plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("report = %+v", report)
	}
	if got := string(report.Goals["combined"]); got != "LR" && got != "RL" {
		t.Errorf("combined = %q, want both producers' data", got)
	}
}

// TestTraceRecordsConversation: a shared recorder observes the complete
// distributed conversation of one construction — and that conversation
// is the routed one. Round 1's fragment query reaches every member and
// brings back each one's description of itself; from then on only members
// that can answer are contacted: round 2 ("lunch prepared") goes to the
// one member that consumes the label, feasibility is answered from the
// descriptions with no message at all, and bids are solicited only from
// the members offering a task of the workflow — each the only one offering
// its task, so the award rides on the call for bids and no award is sent.
func TestTraceRecordsConversation(t *testing.T) {
	rec := trace.NewBuffer(0)
	opts := Options{Engine: testEngineConfig(), Trace: rec}
	specs := cateringSpecs(t, true, true)
	c := newTestCommunity(t, opts, specs...)
	plan, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("lunch ingredients"), lbl("lunch served")))
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		kind string
		dir  trace.Dir
	}
	count := make(map[key]int)
	for _, e := range rec.Events() {
		count[key{e.Kind, e.Dir}]++
	}

	queried := received(rec, "fragment-query")
	for _, hs := range specs {
		if queried[hs.ID] == 0 {
			t.Errorf("%s never received a fragment query: round 1 must reach (and describe) every member", hs.ID)
		}
	}
	if got, want := count[key{"fragment-query", trace.Recv}], len(specs)+1; got != want {
		t.Errorf("fragment queries = %d, want %d (one per member in round 1, then only the waiter for \"lunch prepared\"): %v",
			got, want, queried)
	}
	if n := rec.CountKind("feasibility-query"); n != 0 {
		t.Errorf("%d feasibility-query events: a fully described community is answered locally", n)
	}
	offerers := make(map[proto.Addr]int)
	for _, hs := range specs {
		for _, reg := range hs.Services {
			if _, ok := plan.Workflow.Task(reg.Descriptor.Task); ok {
				offerers[hs.ID] = 1
			}
		}
	}
	if got := received(rec, "call-for-bids-batch"); !reflect.DeepEqual(got, offerers) {
		t.Errorf("calls for bids went to %v, want exactly one to each offerer %v", got, offerers)
	}
	if got := rec.CountKind("award"); got != 0 {
		t.Errorf("%d award events, want none: each task has one offerer, whose bid is the commitment", got)
	}
	if got, want := c.TotalCommitments(), plan.Workflow.NumTasks(); got != want {
		t.Errorf("%d commitments, want one per task (%d)", got, want)
	}

	// Host.Call does not record the request it sends (only Send and
	// replies pass through record), so a round trip is three events:
	// the request's recv, the reply's send, the reply's recv.
	for req, reply := range map[string]string{
		"fragment-query":      "fragment-reply",
		"call-for-bids-batch": "bid-batch",
	} {
		served, sent, got := count[key{req, trace.Recv}], count[key{reply, trace.Send}], count[key{reply, trace.Recv}]
		if served == 0 {
			t.Errorf("no %s events recorded", req)
		}
		if served != sent || sent != got {
			t.Errorf("%s: %d requests received, %d %s sent, %d received — want all equal", req, served, sent, reply, got)
		}
	}
}

// TestExecutionSurvivesTransientPartition: allocation happens while the
// community is whole; during execution the producer and consumer are
// partitioned. With store-and-forward (delay-tolerant) delivery the
// label transfers are buffered and the workflow completes once
// connectivity returns — participants meet their commitments without
// further coordination (§3.2).
func TestExecutionSurvivesTransientPartition(t *testing.T) {
	cfg := testEngineConfig()
	cfg.StartDelay = 400 * time.Millisecond
	c := newTestCommunity(t, Options{Engine: cfg, StoreAndForward: true}, cateringSpecs(t, true, true)...)

	plan, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("breakfast ingredients"), lbl("breakfast served")))
	if err != nil {
		t.Fatal(err)
	}
	// The chosen breakfast path is kitchen → chef; split them during
	// execution and heal after the windows opened.
	c.Network().SetPartition(
		[]proto.Addr{"manager", "kitchen", "waiter"},
		[]proto.Addr{"chef"},
	)
	healed := make(chan struct{})
	go func() {
		time.Sleep(700 * time.Millisecond)
		c.Network().SetPartition()
		close(healed)
	}()
	report, err := c.Execute(ctxTimeout(t, 15*time.Second), "manager", plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-healed
	if !report.Completed {
		t.Fatalf("execution did not survive the transient partition: %+v", report)
	}
}
