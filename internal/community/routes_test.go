package community

// The plan rides on the award: once every task is decided, each winner's
// Award carries where its tasks' outputs go, and Execute on the initiator
// sends no plan request. These tests pin the seams of that: a try whose award is refused, a plan that is
// never executed, and a plan executed on another host than the one that
// allocated it.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/trace"
)

// chainLabel names the i-th label of a routed chain: t(i+1) turns it into
// the next.
func chainLabel(i int) model.LabelID { return model.LabelID(fmt.Sprintf("l%d", i)) }

// routedChain builds a community of hosts host00 … host0(n-1) on sim that
// knows a chain of tasks t1 … t(len(offer)), the knowhow spread over every
// host, and task ti offered by the hosts offer[i-1] names. Every window
// opens a second after the last; nothing refreshes a lease within a test.
func routedChain(t *testing.T, sim *clock.Sim, rec trace.Recorder, hosts int, offer [][]int) (*Community, spec.Spec) {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.StartDelay, cfg.TaskWindow = time.Second, time.Second
	cfg.CallTimeout = time.Hour
	cfg.LeaseRefreshInterval = time.Hour
	specs := make([]HostSpec, hosts)
	for h := range specs {
		specs[h] = HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
	}
	for i, providers := range offer {
		task := fmt.Sprintf("t%d", i+1)
		specs[i%hosts].Fragments = append(specs[i%hosts].Fragments,
			frag(t, "know-"+task, ctask(task, []model.LabelID{chainLabel(i)}, []model.LabelID{chainLabel(i + 1)})))
		for _, h := range providers {
			specs[h].Services = append(specs[h].Services, svc(task, 0))
		}
	}
	c := newTestCommunity(t, Options{Clock: sim, Engine: &cfg, Trace: rec}, specs...)
	return c, spec.Must([]model.LabelID{chainLabel(0)}, []model.LabelID{chainLabel(len(offer))})
}

// executeOn runs plan from host id with the clock driven, and fails unless
// it completes with its goal and leaves every host clean.
func executeOn(t *testing.T, c *Community, sim *clock.Sim, id proto.Addr, plan *engine.Plan) *engine.Report {
	t.Helper()
	stop := driveClock(sim)
	report, err := c.Execute(ctxTimeout(t, 60*time.Second), id, plan, map[model.LabelID][]byte{chainLabel(0): []byte("go")})
	stop()
	if err != nil || !report.Completed || len(report.Goals) != 1 {
		t.Fatalf("report = %+v, err = %v", report, err)
	}
	waitClean(t, c)
	return report
}

// withdrawOnAward is a recorder that withdraws host's service for task when
// the host's first Award arrives, before the host handles it: that award's
// verdict on task is a refusal.
type withdrawOnAward struct {
	*trace.Buffer
	host proto.Addr
	task model.TaskID
	c    *Community
	once sync.Once
}

func (w *withdrawOnAward) Record(e trace.Event) {
	w.Buffer.Record(e)
	if e.Dir == trace.Recv && e.Kind == "award" && e.Host == w.host {
		w.once.Do(func() {
			h, _ := w.c.Host(w.host)
			h.Services.Unregister(w.task)
		})
	}
}

// TestRefusedAwardExecutesOnLastTryRoutes: host01 wins the whole chain and
// refuses t2 on the award, its service withdrawn meanwhile. The try fails,
// its awards and the routes they carried are cancelled, and the retry moves
// t2 to host02: its awards route l1 to host02 and l2 back to host01.
// Execute then runs on the last try's routes alone, with no plan request,
// and leaves no run and no label on any host.
func TestRefusedAwardExecutesOnLastTryRoutes(t *testing.T) {
	sim := clock.NewSim(stressT0)
	rec := &withdrawOnAward{Buffer: &trace.Buffer{}, host: "host01", task: "t2"}
	c, problem := routedChain(t, sim, rec, 3, [][]int{{1, 2}, {1, 2}, {1, 2}})
	rec.c = c

	plan, err := c.Initiate(ctxTimeout(t, 60*time.Second), "host00", problem)
	if err != nil {
		t.Fatal(err)
	}
	want := map[model.TaskID]proto.Addr{"t1": "host01", "t2": "host02", "t3": "host01"}
	for task, host := range want {
		if plan.Allocations[task] != host {
			t.Fatalf("allocations %v, want %v", plan.Allocations, want)
		}
	}
	if plan.Replans != 0 || c.TotalRuns() != 3 {
		t.Fatalf("plan after %d replans has %d runs registered, want the three of a window retry", plan.Replans, c.TotalRuns())
	}
	if got := received(rec.Buffer, "award"); got["host01"] != 2 || got["host02"] != 1 {
		t.Fatalf("awards received %v, want host01's refused one and one each after the retry", got)
	}

	executeOn(t, c, sim, "host00", plan)
	if got := rec.CountKind("plan-segment"); got != 0 {
		t.Errorf("%d plan requests, want none: every route rode on the last try's awards", got)
	}
	for _, id := range c.Members() {
		h, _ := c.Host(id)
		if runs, labels := h.Exec.Residue(); runs+labels != 0 {
			t.Errorf("%s: %d runs, %d labels after the workflow ended", id, runs, labels)
		}
	}
}

// TestUnexecutedPlanArmsNoTimer: an award whose routes ride on it registers
// a run that arms nothing until its inputs are in, so a plan that is never
// executed leaves the clock with at most each host's one calendar sweep. Its
// release drops every run, and once the sweeps have run the clock holds no
// timer at all — and no service ran.
func TestUnexecutedPlanArmsNoTimer(t *testing.T) {
	sim := clock.NewSim(stressT0)
	rec := &trace.Buffer{}
	c, problem := routedChain(t, sim, rec, 4, [][]int{{1, 2}, {1, 2}, {1, 2}, {2, 3}, {2, 3}, {2, 3}})
	ctx := ctxTimeout(t, 60*time.Second)

	plan, err := c.Initiate(ctx, "host00", problem)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TotalRuns(); got != 6 {
		t.Fatalf("%d runs registered by the awards, want all six", got)
	}
	if got := sim.PendingWaiters(); got > len(c.Members()) {
		t.Errorf("%d timers pending after Initiate, want at most one calendar sweep per host", got)
	}

	// The release Execute would send, to every participant.
	h0, _ := c.Host("host00")
	for _, to := range plan.Allocations {
		if err := h0.Send(ctx, to, plan.WorkflowID, proto.Cancel{}); err != nil {
			t.Fatal(err)
		}
	}
	waitClean(t, c)
	deadline := time.Now().Add(5 * time.Second)
	for sim.PendingWaiters() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d timers still pending after the release and every sweep", sim.PendingWaiters())
		}
		sim.Advance(time.Minute)
		time.Sleep(time.Millisecond)
	}
	if got := rec.CountKind("task-done") + rec.CountKind("label-transfer"); got != 0 {
		t.Errorf("%d task completions and label transfers from a plan never executed", got)
	}
}

// TestExecuteElsewhereRefused: the routes on the awards return goals and
// failures to the host that allocated the plan, so the plan executes only
// there. Executed from another host, Execute errors before it sends
// anything, and releases nothing: the same plan then completes on its
// initiator with no plan request.
func TestExecuteElsewhereRefused(t *testing.T) {
	sim := clock.NewSim(stressT0)
	rec := &trace.Buffer{}
	c, problem := routedChain(t, sim, rec, 4, [][]int{{1}, {1, 2}, {2}, {2}})

	plan, err := c.Initiate(ctxTimeout(t, 60*time.Second), "host00", problem)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Initiator != "host00" || c.TotalRuns() != 4 {
		t.Fatalf("plan allocated by %q registered %d runs, want host00 and all four", plan.Initiator, c.TotalRuns())
	}

	sent := len(rec.Events())
	if _, err := c.Execute(ctxTimeout(t, 60*time.Second), "host03", plan, nil); err == nil {
		t.Fatal("Execute on host03 accepted a plan host00 initiated")
	}
	if got := rec.Events()[sent:]; len(got) != 0 {
		t.Errorf("refused Execute sent %v, want nothing", got)
	}
	if c.TotalRuns() != 4 {
		t.Errorf("%d runs after the refused Execute, want all four still registered", c.TotalRuns())
	}

	executeOn(t, c, sim, "host00", plan)
	if got := received(rec, "plan-segment"); len(got) != 0 {
		t.Errorf("plan requests received %v, want none", got)
	}
}
