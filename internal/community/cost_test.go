package community

// The cost table: each row runs one scenario on a virtual clock over
// zero-latency inmem, where nothing waits on a link, and prices it alone —
// its round trips and the envelopes of each kind exactly, and the
// allocations of each phase as bounds (skipped under the race detector,
// whose instrumentation allocates). A change that moves a row edits the row
// and says why.

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/core"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/testutil"
	"openwf/internal/trace"
)

// The phases of one session, as the table prices them (testutil.Meter's
// phase numbers).
const (
	construct = iota // Initiate up to the constructed workflow
	allocate         // the rest of Initiate: calls for bids and awards
	execute          // Execute, until every host has dropped its runs
	numPhases
)

var phaseNames = []string{"construct", "allocate", "execute"}

// kinds counts the envelopes the hosts receive, by kind; one handed over
// in place on its own host counts too.
type kinds struct {
	mu     sync.Mutex
	counts map[string]int
}

func (k *kinds) Record(e trace.Event) {
	if e.Dir != trace.Recv {
		return
	}
	k.mu.Lock()
	k.counts[e.Kind]++
	k.mu.Unlock()
}

func (k *kinds) take() map[string]int {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := maps.Clone(k.counts)
	clear(k.counts)
	return out
}

// TestCostTable prices each row's warm session: one session runs first,
// so the initiator knows its community, and each of the sessions after it
// must cost the row's calls and envelopes exactly, and on average at most
// the row's allocations per phase.
func TestCostTable(t *testing.T) {
	const sessions = 10
	for _, row := range []struct {
		name      string
		setup     func(*testing.T, *kinds, *testutil.Meter) (*Community, func(*testing.T))
		calls     int64
		envelopes map[string]int
		// allocs bounds each phase's allocations per session, with the
		// process's other goroutines counted in.
		allocs [numPhases]float64
	}{
		// wireless_execute's session on zero latency: 4 hosts, a 6-task
		// chain, 3 providers of every task, 4 KiB labels. From memory the
		// sweep decides every task before a window opens, so host01, which
		// wins every tie, runs the whole chain: 3 calls for bids + 1 award;
		// 7 label transfers, 5 of them host01 to itself; and 3 cancels, one
		// to each loser's bids and the release of host01's runs. The
		// services are the benchmark's XOR, 3 allocations a task. Ten runs
		// of the test read construct 13.3, allocate 75.1 and execute 75.3;
		// each bound sits 2 above, a third of the 6 that one more
		// allocation per task run adds. Allocate read 81.0 – 81.1 and
		// execute 83.0 – 83.3 while a call for bids decoded into 4
		// allocations, the 6-task award into 6 and each of the 2 label
		// transfers that cross the wire into 7, where each is 3 now (a
		// frame's lists come from one block, its strings from one copy).
		// Allocate read 82.0 – 82.1 while it copied the workflow's order to drop the
		// placed tasks, 110.0 – 110.1 while every hold allocated its
		// record, every call for bids its results and the losers' cancel
		// lists grew by append, and 120.0 – 120.1 while a plan's metas sat
		// out of line and the ack carried a verdict per task. Construct read 20.0 –
		// 20.3 while the workflow indexed itself in maps, 22.0 – 22.3
		// while Satisfies copied the workflow's inset and outset, and
		// execute 84.0 – 84.1 while distribute copied the inset (116.0 –
		// 116.1 while the service copied every body's outputs and sendExec
		// copied a same-host label's body).
		{
			name:      "initiate+execute/chain=6/label=4KiB",
			setup:     chainSession,
			calls:     4,
			envelopes: map[string]int{"call-for-bids-batch": 3, "bid-batch": 3, "award": 1, "award-ack": 1, "label-transfer": 7, "cancel": 3},
			allocs:    [numPhases]float64{construct: 15, allocate: 77, execute: 77},
		},
		// sim_serial's session: a 6-task chain whose every task one host
		// offers, 3 providers of 2 tasks each. Memory knows each task's one
		// offerer, so no call for bids goes out: 3 held awards, each
		// answered by its ack, and nothing else. Ten runs read construct
		// 13.0 and allocate 36.8; each bound sits 2 above, a third of the
		// 6 that one more allocation per task adds. Allocate read 45.8
		// while an award of one or two tasks decoded into 4 or 6
		// allocations, where it is 3 now — 9 for the session's 3 awards —
		// 46.8
		// while it copied the workflow's order to drop the placed tasks,
		// 52.8 while every hold allocated its record. It read construct
		// 20.0 – 20.3 while the workflow indexed itself in maps, 22.0 while
		// Satisfies copied the inset and outset, and
		// allocate 70.8 while the ack carried a verdict per task — 4
		// allocations per award, the list built and boxed by the winner and
		// again by the decoder — and a plan's metas sat out of line, 1 per
		// task.
		{
			name:      "initiate/sole-providers/chain=6",
			setup:     soleSession,
			calls:     3,
			envelopes: map[string]int{"award": 3, "award-ack": 3},
			allocs:    [numPhases]float64{construct: 15, allocate: 39},
		},
		// sim_contended's collision: the sole-provider layout with every
		// task offered by all 3 providers, and before each session a rival
		// workflow's commitment takes every window on host01, which would
		// win every tie. The session sweeps: 3 calls for bids, host01
		// declines all 6 tasks, host02 wins them in 1 award, and host03,
		// the loser, gets 1 cancel. Ten runs read construct 13.0 and
		// allocate 64.8; each bound sits 2 above, a third of the 6 that one
		// more allocation per decline adds. Construct read 20.0 while the
		// workflow indexed itself in maps. Allocate read 70.8 while a call
		// for bids decoded into 4 allocations and the 6-task award into 6,
		// where each is 3 now, 71.8 while it
		// copied the workflow's order to drop the placed tasks, 95.8 while
		// every busy decline was boxed, every hold allocated its record,
		// every call for bids its results and the loser's cancel list grew
		// by append.
		{
			name:      "initiate/contended/chain=6",
			setup:     contendedSession,
			calls:     4,
			envelopes: map[string]int{"call-for-bids-batch": 3, "bid-batch": 3, "award": 1, "award-ack": 1, "cancel": 1},
			allocs:    [numPhases]float64{construct: 15, allocate: 67},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			testutil.Quiet(t)
			rec := &kinds{counts: make(map[string]int)}
			m := testutil.NewMeter(numPhases)
			c, session := row.setup(t, rec, m)
			session(t) // warm: the initiator learns its community
			rec.take()
			m.Reset()
			for i := 0; i < sessions; i++ {
				c0 := c.Network().Stats().Calls
				m.Start()
				session(t)
				if got := c.Network().Stats().Calls - c0; got != row.calls {
					t.Errorf("session %d: %d round trips, want %d", i, got, row.calls)
				}
				if got := rec.take(); !maps.Equal(got, row.envelopes) {
					t.Errorf("session %d: envelopes %v, want %v", i, got, row.envelopes)
				}
			}
			m.Check(t, sessions, phaseNames, row.allocs[:])
		})
	}
}

// chainSession builds the row's community and returns one session of it:
// Initiate, then Execute once every window has opened, so no run waits on
// the clock, then the wait until every host has dropped its runs.
func chainSession(t *testing.T, rec *kinds, m *testutil.Meter) (*Community, func(*testing.T)) {
	const chain, hosts, size = 6, 4, 4096
	sim := clock.NewSim(stressT0)
	cfg := engine.DefaultConfig()
	cfg.ParallelQuery = true
	cfg.StartDelay, cfg.TaskWindow = 5*time.Millisecond, time.Millisecond
	cfg.CallTimeout = time.Hour
	cfg.LeaseRefreshInterval = time.Hour
	cfg.Observer.ConstructionDone = func(string, core.Result) { m.Mark(construct) }

	label := func(i int) model.LabelID { return model.LabelID(fmt.Sprintf("l%d", i)) }
	specs := make([]HostSpec, hosts)
	for h := range specs {
		specs[h] = HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
	}
	for i := 0; i < chain; i++ {
		task := fmt.Sprintf("t%d", i+1)
		in, out := label(i), label(i+1)
		specs[i%hosts].Fragments = append(specs[i%hosts].Fragments,
			frag(t, "know-"+task, ctask(task, []model.LabelID{in}, []model.LabelID{out})))
		mask := make([]byte, size)
		for j := range mask {
			mask[j] = byte(i + j)
		}
		xor := service.Registration{
			Descriptor: service.Descriptor{Task: model.TaskID(task), Specialization: 0.5},
			Fn: func(inv service.Invocation) (service.Outputs, error) {
				res := make([]byte, size)
				for j, b := range inv.Inputs[in] {
					res[j] = b ^ mask[j]
				}
				return service.Outputs{out: res}, nil
			},
		}
		for h := 1; h < hosts; h++ {
			specs[h].Services = append(specs[h].Services, xor)
		}
	}
	c := newTestCommunity(t, Options{Clock: sim, Engine: &cfg, Trace: rec, Seed: 1}, specs...)
	problem := spec.Must([]model.LabelID{label(0)}, []model.LabelID{label(chain)})
	triggers := map[model.LabelID][]byte{label(0): make([]byte, size)}
	ctx := ctxTimeout(t, time.Minute)
	return c, func(t *testing.T) {
		t.Helper()
		plan, err := c.Initiate(ctx, "host00", problem)
		if err != nil {
			t.Fatal(err)
		}
		settle(c, false)
		m.Mark(allocate)
		sim.Advance(time.Second)
		report, err := c.Execute(ctx, "host00", plan, triggers)
		if err != nil || !report.Completed || len(report.Goals[label(chain)]) != size {
			t.Fatalf("report = %+v, err = %v", report, err)
		}
		settle(c, true)
		m.Mark(execute)
	}
}

// soleSession builds the row's community, each task offered by one host.
func soleSession(t *testing.T, rec *kinds, m *testutil.Meter) (*Community, func(*testing.T)) {
	return initiateSession(t, rec, m, func(i int) []int { return []int{1 + i%3} }, nil)
}

// contendedSession builds the row's community, every task offered by
// hosts 1 to 3, with host01 occupied before each session.
func contendedSession(t *testing.T, rec *kinds, m *testutil.Meter) (*Community, func(*testing.T)) {
	c, session := initiateSession(t, rec, m, func(int) []int { return []int{1, 2, 3} }, occupy)
	occupy(t, c)
	return c, session
}

// occupy gives a rival workflow a commitment on host01 over the next hour,
// every window a session asks for.
func occupy(t *testing.T, c *Community) {
	t.Helper()
	h, _ := c.Host("host01")
	now := c.Clock().Now()
	rival := proto.TaskMeta{Task: "rival", Start: now, End: now.Add(time.Hour)}
	if _, err := h.Schedule.Hold("rival", rival, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Schedule.CommitHeld("rival", rival.Task, time.Time{}); err != nil {
		t.Fatal(err)
	}
}

// initiateSession builds a 6-task chain's community of 4 hosts, the
// knowhow spread over them and task i offered by the hosts providers(i)
// names, and returns one session of it: Initiate, then every calendar
// cleared and the plan's runs dropped in place, as sim_serial clears them
// between operations, so the next session's windows are free, and then
// reset, when set. The clearing sends nothing and falls outside every
// phase.
func initiateSession(t *testing.T, rec *kinds, m *testutil.Meter, providers func(int) []int, reset func(*testing.T, *Community)) (*Community, func(*testing.T)) {
	const chain, hosts = 6, 4
	sim := clock.NewSim(stressT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay, cfg.TaskWindow = time.Second, time.Second
	cfg.CallTimeout = time.Hour
	cfg.LeaseRefreshInterval = time.Hour
	cfg.Observer.ConstructionDone = func(string, core.Result) { m.Mark(construct) }

	label := func(i int) model.LabelID { return model.LabelID(fmt.Sprintf("l%d", i)) }
	specs := make([]HostSpec, hosts)
	for h := range specs {
		specs[h] = HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
	}
	for i := 0; i < chain; i++ {
		task := fmt.Sprintf("t%d", i+1)
		specs[i%hosts].Fragments = append(specs[i%hosts].Fragments,
			frag(t, "know-"+task, ctask(task, []model.LabelID{label(i)}, []model.LabelID{label(i + 1)})))
		for _, h := range providers(i) {
			specs[h].Services = append(specs[h].Services, svc(task, 0))
		}
	}
	c := newTestCommunity(t, Options{Clock: sim, Engine: &cfg, Trace: rec, Seed: 1}, specs...)
	problem := spec.Must([]model.LabelID{label(0)}, []model.LabelID{label(chain)})
	ctx := ctxTimeout(t, time.Minute)
	return c, func(t *testing.T) {
		t.Helper()
		plan, err := c.Initiate(ctx, "host00", problem)
		if err != nil || len(plan.Allocations) != chain {
			t.Fatalf("plan = %+v, err = %v", plan, err)
		}
		settle(c, false)
		m.Mark(allocate)
		c.ResetSchedules()
		for _, id := range c.order {
			c.hosts[id].Exec.ClearWorkflow(plan.WorkflowID)
		}
		if reset != nil {
			reset(t, c)
		}
	}
}

// settle waits until no host holds a bid's hold — the cancels that end
// an auction's losing bids have been handled — and, with runs, no run
// either: the workflow's release has been handled. It allocates nothing,
// so it adds nothing to a phase.
func settle(c *Community, runs bool) {
	for _, id := range c.order {
		h := c.hosts[id]
		for {
			n, _ := h.Exec.Residue()
			if h.Schedule.Holds() == 0 && (!runs || n == 0) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}
