package community

// One message per peer per phase, counted where counting is deterministic:
// on a simulated clock, over the shape of the benchmark's wireless_execute
// workload.

import (
	"fmt"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/trace"
)

// linkClock stands in for the modelled 802.11g link on a simulated clock:
// every call for bids, and every reply to one, takes oneWay to arrive.
// Nothing else is delayed — only the sweep races the execution windows.
type linkClock struct {
	sim    *clock.Sim
	oneWay time.Duration
}

func (l linkClock) Record(e trace.Event) {
	if e.Dir == trace.Recv && (e.Kind == "call-for-bids-batch" || e.Kind == "bid-batch") {
		l.sim.Advance(l.oneWay)
	}
}

// TestOneMessagePerPeerPerPhase: 4 hosts, a 6-task chain, 3 replicated
// providers. From memory an Initiate costs one call for bids per provider
// and one award per winner, and its Execute no round trip at all: the sweep
// decides every task before the first award goes out, so each award carries
// its tasks' routes and no plan request follows. 3 + W for Initiate and
// Execute together, with W the distinct hosts of the plan.
//
// The benchmark's StartDelay (5 ms) is shorter than three sequential calls
// for bids on its link (2.3 ms each): the third provider is asked 5.75 ms
// in, after the first task's window opened, and declines that one task —
// "execution window already started". When that provider is host01, which
// wins every tie, the chain splits over two winners; the rotation puts it
// third in one session of four, so the benchmark reads 3 + 1.25 and not 4. The split is the fixture's, not the batching's: it is pinned here
// so that a change in either shows.
func TestOneMessagePerPeerPerPhase(t *testing.T) {
	const chain = 6
	sim := clock.NewSim(stressT0)
	cfg := engine.DefaultConfig()
	cfg.ParallelQuery = true
	cfg.StartDelay, cfg.TaskWindow = 5*time.Millisecond, time.Millisecond
	cfg.CallTimeout = time.Hour
	// Refresh is its own phase (one LeaseRefresh per executor); it must not
	// fire inside the counts below however slowly the test machine runs.
	cfg.LeaseRefreshInterval = time.Hour

	specs := make([]HostSpec, 4)
	for h := range specs {
		specs[h] = HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
	}
	label := func(i int) model.LabelID { return model.LabelID(fmt.Sprintf("l%d", i)) }
	for i := 0; i < chain; i++ {
		task := fmt.Sprintf("t%d", i+1)
		specs[i%4].Fragments = append(specs[i%4].Fragments,
			frag(t, "know-"+task, ctask(task, []model.LabelID{label(i)}, []model.LabelID{label(i + 1)})))
		for h := 1; h < 4; h++ {
			specs[h].Services = append(specs[h].Services, svc(task, 0))
		}
	}
	c := newTestCommunity(t, Options{Clock: sim, Engine: &cfg, Trace: linkClock{sim, 1150 * time.Microsecond}}, specs...)
	problem := spec.Must([]model.LabelID{label(0)}, []model.LabelID{label(chain)})
	ctx := ctxTimeout(t, 60*time.Second)

	session := func() *engine.Plan {
		t.Helper()
		plan, err := c.Initiate(ctx, "host00", problem)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Allocations) != chain || plan.Replans != 0 {
			t.Fatalf("plan allocates %d of %d tasks after %d replans", len(plan.Allocations), chain, plan.Replans)
		}
		return plan
	}
	execute := func(plan *engine.Plan) {
		t.Helper()
		stop := driveClock(sim)
		report, err := c.Execute(ctx, "host00", plan, map[model.LabelID][]byte{label(0): []byte("go")})
		stop()
		if err != nil || !report.Completed {
			t.Fatalf("report = %+v, err = %v", report, err)
		}
		waitClean(t, c)
	}
	// The host's first session learns its community; the counts are of the
	// sessions after it, as the benchmark's are.
	execute(session())

	splits := 0
	for i := 0; i < 4; i++ {
		c.Network().ResetCounters()
		plan := session()
		hosts := make(map[proto.Addr]int)
		for _, h := range plan.Allocations {
			hosts[h]++
		}
		w := int64(len(hosts))
		if got := c.Network().Stats().Calls; got != 3+w {
			t.Errorf("session %d: Initiate cost %d round trips, want 3 calls for bids + %d awards (%v)", i, got, w, plan.Allocations)
		}
		switch {
		case len(hosts) == 1 && hosts["host01"] == chain:
		case len(hosts) == 2 && plan.Allocations["t1"] == "host02" && hosts["host01"] == chain-1:
			splits++
		default:
			t.Errorf("session %d: allocations %v; want the chain on host01, or t1 alone on host02", i, plan.Allocations)
		}
		execute(plan)
		if got := c.Network().Stats().Calls; got != 3+w {
			t.Errorf("session %d: Initiate and Execute cost %d round trips, want 3 + %d awards and no plan request", i, got, w)
		}
	}
	if splits != 1 {
		t.Errorf("%d of 4 sessions split over two winners, want the one whose rotation asks host01 third", splits)
	}
}

// TestSoleProvidersCostOneCallEach: the same chain with every task offered
// by one host only — the shape of the benchmark's sim_serial workload. From
// memory each task has one possible winner, so no call for bids goes out:
// each winner gets one held award carrying its tasks' routes, and an
// Initiate costs D round trips, D the distinct hosts of the plan. Execute
// sends no plan request: it costs no round trip at all.
func TestSoleProvidersCostOneCallEach(t *testing.T) {
	const chain = 6
	sim := clock.NewSim(stressT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay, cfg.TaskWindow = time.Second, time.Second
	cfg.CallTimeout = time.Hour
	cfg.LeaseRefreshInterval = time.Hour

	specs := make([]HostSpec, 4)
	for h := range specs {
		specs[h] = HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
	}
	label := func(i int) model.LabelID { return model.LabelID(fmt.Sprintf("l%d", i)) }
	for i := 0; i < chain; i++ {
		task := fmt.Sprintf("t%d", i+1)
		specs[i%4].Fragments = append(specs[i%4].Fragments,
			frag(t, "know-"+task, ctask(task, []model.LabelID{label(i)}, []model.LabelID{label(i + 1)})))
		specs[1+i%3].Services = append(specs[1+i%3].Services, svc(task, 0))
	}
	rec := &trace.Buffer{}
	c := newTestCommunity(t, Options{Clock: sim, Engine: &cfg, Trace: rec}, specs...)
	problem := spec.Must([]model.LabelID{label(0)}, []model.LabelID{label(chain)})
	ctx := ctxTimeout(t, 60*time.Second)

	for i := 0; i < 3; i++ {
		c.Network().ResetCounters()
		plan, err := c.Initiate(ctx, "host00", problem)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < chain; j++ {
			task := model.TaskID(fmt.Sprintf("t%d", j+1))
			if want := specs[1+j%3].ID; plan.Allocations[task] != want {
				t.Errorf("session %d: %s allocated to %q, want its one provider %q", i, task, plan.Allocations[task], want)
			}
		}
		if got := c.TotalCommitments(); got != chain {
			t.Errorf("session %d: %d commitments after Initiate, want %d", i, got, chain)
		}
		if i > 0 { // the first session also learns its community
			if got := c.Network().Stats().Calls; got != 3 {
				t.Errorf("session %d: Initiate cost %d round trips, want one award to each of 3 providers", i, got)
			}
		}
		stop := driveClock(sim)
		report, err := c.Execute(ctx, "host00", plan, map[model.LabelID][]byte{label(0): []byte("go")})
		stop()
		if err != nil || !report.Completed {
			t.Fatalf("report = %+v, err = %v", report, err)
		}
		waitClean(t, c)
		if i > 0 {
			if got := c.Network().Stats().Calls; got != 3 {
				t.Errorf("session %d: Initiate and Execute cost %d round trips, want 3 awards and no plan request", i, got)
			}
		}
	}
	awards := 0
	for _, n := range received(rec, "award") {
		awards += n
	}
	if awards != 3*3 {
		t.Errorf("%d awards over three sessions, want one per provider per session", awards)
	}
	if got := rec.CountKind("plan-segment"); got != 0 {
		t.Errorf("%d plan-request events over three sessions, want none", got)
	}
}

// TestMixedPlanNoPlanRequest: the same chain with t1 … t5 offered by
// host01 to host03 and t6 by host03 alone. Memory leaves t1 … t5 contested,
// so the session is auctioned whole, t6 with the rest: every award carries
// its tasks' routes, t6's included, and Execute sends no plan request.
func TestMixedPlanNoPlanRequest(t *testing.T) {
	sim := clock.NewSim(stressT0)
	rec := &trace.Buffer{}
	replicated := []int{1, 2, 3}
	c, problem := routedChain(t, sim, rec, 4, [][]int{replicated, replicated, replicated, replicated, replicated, {3}})
	ctx := ctxTimeout(t, 60*time.Second)

	for i := 0; i < 2; i++ { // the first session also learns its community
		plan, err := c.Initiate(ctx, "host00", problem)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			executeOn(t, c, sim, "host00", plan)
			continue
		}
		if plan.Allocations["t6"] != "host03" {
			t.Fatalf("allocations %v, want t6 on its one provider host03", plan.Allocations)
		}
		executeOn(t, c, sim, "host00", plan)
		if got := received(rec, "plan-segment"); len(got) != 0 {
			t.Errorf("plan requests received %v, want none", got)
		}
	}
}
