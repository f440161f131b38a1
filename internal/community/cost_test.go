package community

// The cost table: each row runs one scenario on a virtual clock over
// zero-latency inmem, where nothing waits on a link, and prices it alone —
// its round trips and the envelopes of each kind exactly, and the
// allocations of each phase as bounds (skipped under the race detector,
// whose instrumentation allocates). A change that moves a row edits the row
// and says why.

import (
	"bytes"
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
	"openwf/internal/transport/inmem"
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

// TestCostTable prices each row's warm session: two sessions run first —
// the initiator learns its community, and the process's pools grow to what
// a warm session takes from them, so a row reads the same alone and after
// the others — and each of the sessions after them must cost the row's
// calls and envelopes exactly, and on average at most the row's
// allocations per phase.
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
		// 7 label transfers, 5 of them host01 to itself, handed over in
		// place and counted through the trace; and 3 cancels, one to each
		// loser's bids and the release of host01's runs. Each run on host01
		// after the first starts on its producer's goroutine. The services
		// are the benchmark's XOR, 3 allocations a task. Ten runs of the
		// test read construct 12.0, allocate 73.8 and execute 55.0; each
		// bound sits 2 above, a third of the 6 that one more allocation per
		// task run adds. Earlier readings are in CHANGES.md.
		{
			name:      "initiate+execute/chain=6/label=4KiB",
			setup:     chainSession,
			calls:     4,
			envelopes: map[string]int{"call-for-bids-batch": 3, "bid-batch": 3, "award": 1, "award-ack": 1, "label-transfer": 7, "cancel": 3},
			allocs:    [numPhases]float64{construct: 14, allocate: 76, execute: 57},
		},
		// sim_serial's session: a 6-task chain whose every task one host
		// offers, 3 providers of 2 tasks each. Memory knows each task's one
		// offerer, so no call for bids goes out: 3 held awards, each
		// answered by its ack, and nothing else. Ten runs read construct
		// 12.0 and allocate 35.7 (13.0 while each session was a heap
		// object; 13.3 and 36.8 alone while one session warmed the row);
		// each bound sits 2 above, a third of the 6 that one more
		// allocation per task adds. Allocate read 36.7 while a try's
		// failed tasks were a list of their own, 45.8
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
			allocs:    [numPhases]float64{construct: 14, allocate: 38},
		},
		// sim_contended's collision: the sole-provider layout with every
		// task offered by all 3 providers, and before each session a rival
		// workflow's commitment takes every window on host01, which would
		// win every tie. The session sweeps: 3 calls for bids, host01
		// declines all 6 tasks, host02 wins them in 1 award, and host03,
		// the loser, gets 1 cancel. Ten runs read construct 12.0 and
		// allocate 63.7 (13.0 while each session was a heap object; 13.3
		// and 64.9 alone while one session warmed the row); each bound
		// sits 2 above, a third of the 6 that one more allocation per
		// decline adds. Allocate read 64.7 while a try's failed tasks
		// were a list of their own. Construct read 20.0 while the
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
			allocs:    [numPhases]float64{construct: 14, allocate: 66},
		},
		// The serial auction over replicated providers, split: every task
		// offered by all 3 providers, host01 the specialist of t1 – t3,
		// host02 of t4 – t6 and host03 middling at all six. The sweep's 3
		// calls for bids decide host01 the winner of t1 – t3 and host02 of
		// t4 – t6; every loser is released before the first winner is told —
		// host01 and host02 lose each other's tasks and host03 all six, 1
		// cancel each — then 2 awards, one per winner. Its rounds reach
		// several peers with several tasks each, and one host is both a
		// loser and a winner. Ten runs read construct 12.0 and allocate
		// 76.8 after the rows above (13.0 while each session was a heap
		// object; 13.3 and 78.1 alone while one session warmed the row);
		// each bound sits 2 above, as the other rows' do. Allocate read
		// 77.8 while a try's failed tasks were a list of their own.
		{
			name:      "initiate/split/chain=6",
			setup:     splitSession,
			calls:     5,
			envelopes: map[string]int{"call-for-bids-batch": 3, "bid-batch": 3, "award": 2, "award-ack": 2, "cancel": 3},
			allocs:    [numPhases]float64{construct: 14, allocate: 79},
		},
		// The chain row with its winner crashed: host01 dies after
		// Initiate, before its first window. Execute's trigger and the
		// refresher's lease refresh go to a dark host, so neither counts
		// as received, and the refresh's call times out. Repair starts from
		// doubt (DESIGN.md §10), so its sweep asks host00, host02 and
		// host03; host02 wins all six tasks in 1 award, and host03 loses
		// them in 1 cancel. No kept task feeds a re-homed one, so no plan
		// request goes out: the trigger is re-injected, and host02 runs
		// the chain. The doubt, and the hours on the clock, leave the next
		// session cold: its construction asks every member, 9 fragment
		// queries over its rounds, and its Initiate sweeps as the chain
		// row's does. That makes 18 calls: 9 fragment queries, 6 calls for
		// bids, 2 awards and the lost refresh; and 4 cancels: the
		// Initiate's 2 losers, the repair's loser and the release of
		// host02's runs. Ten runs read construct 182.0, allocate 75.7 and
		// execute 173.0; each bound sits 2 above. Earlier readings are in
		// CHANGES.md.
		{
			name:      "initiate+repair/chain=6/label=4KiB",
			setup:     repairSession,
			calls:     18,
			envelopes: map[string]int{"fragment-query": 9, "fragment-reply": 9, "call-for-bids-batch": 6, "bid-batch": 6, "award": 2, "award-ack": 2, "label-transfer": 7, "cancel": 4},
			allocs:    [numPhases]float64{construct: 184, allocate: 78, execute: 175},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			testutil.Quiet(t)
			rec := &kinds{counts: make(map[string]int)}
			m := testutil.NewMeter(numPhases)
			c, session := row.setup(t, rec, m)
			session(t) // warm: the initiator learns its community
			session(t) // and the process's pools fit a warm session
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
	c, sim, problem, triggers, goal := chainCommunity(t, rec, m, engine.Observer{})
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
		if err != nil || !report.Completed || len(report.Goals[goal]) != len(triggers[label0]) {
			t.Fatalf("report = %+v, err = %v", report, err)
		}
		settle(c, true)
		m.Mark(execute)
	}
}

// repairSession builds the chain row's community and returns one session
// of it in which host01, the winner of every task, crashes after Initiate
// and before its first window: Execute's trigger is lost with it, the
// refresher's tick and then its call to host01, each the one timer on the
// clock, wait out an hour, and once the repair has re-homed the chain the
// windows open. The goal must carry the chain's XOR of the trigger. host01
// restarts, blank, outside every phase, an hour later.
func repairSession(t *testing.T, rec *kinds, m *testutil.Meter) (*Community, func(*testing.T)) {
	repaired := make(chan []model.TaskID, 1)
	c, sim, problem, triggers, goal := chainCommunity(t, rec, m, engine.Observer{
		Repaired: func(_ string, _ []proto.Addr, tasks []model.TaskID) { repaired <- tasks },
	})
	want := make([]byte, len(triggers[label0]))
	for i := 0; i < 6; i++ {
		for j := range want {
			want[j] ^= byte(i + j)
		}
	}
	ctx := ctxTimeout(t, time.Minute)
	return c, func(t *testing.T) {
		t.Helper()
		plan, err := c.Initiate(ctx, "host00", problem)
		if err != nil {
			t.Fatal(err)
		}
		for task, h := range plan.Allocations {
			if h != "host01" {
				t.Fatalf("%s allocated to %s, want every task on host01", task, h)
			}
		}
		settle(c, false)
		m.Mark(allocate)
		if err := c.CrashHost("host01"); err != nil {
			t.Fatal(err)
		}
		sim.Advance(time.Second) // the bids' sweeps: nothing is left on the clock
		type result struct {
			report *engine.Report
			err    error
		}
		done := make(chan result, 1)
		go func() {
			report, err := c.Execute(ctx, "host00", plan, triggers)
			done <- result{report, err}
		}()
		advanceOnceWaiting(sim, 1, time.Hour) // the refresher's tick
		advanceOnceWaiting(sim, 1, time.Hour) // its call to host01 times out
		if tasks := <-repaired; len(tasks) != 6 {
			t.Fatalf("repair re-homed %v, want all six tasks", tasks)
		}
		sim.Advance(time.Second)
		r := <-done
		if r.err != nil || !r.report.Completed || !bytes.Equal(r.report.Goals[goal], want) {
			t.Fatalf("report = %+v, err = %v", r.report, r.err)
		}
		for task, h := range plan.Allocations {
			if h != "host02" {
				t.Fatalf("%s repaired onto %s, want every task on host02", task, h)
			}
		}
		settle(c, true)
		m.Mark(execute)
		// The ended refresher's last tick leaves the clock, and host01 comes
		// back blank.
		restart := []inmem.Fault{{At: time.Hour, Kind: inmem.FaultRestart, Host: "host01"}}
		if err := c.ScheduleFaults(restart, nil); err != nil {
			t.Fatal(err)
		}
		sim.Advance(time.Hour)
	}
}

// advanceOnceWaiting advances sim by d once n timers and sleepers are
// pending on it.
func advanceOnceWaiting(sim *clock.Sim, n int, d time.Duration) {
	for sim.PendingWaiters() < n {
		time.Sleep(time.Millisecond)
	}
	sim.Advance(d)
}

// label0 is the chain rows' trigger.
const label0 model.LabelID = "l0"

// chainCommunity builds the chain rows' community on a virtual clock: 4
// hosts, the knowhow of a 6-task chain spread over them and every task
// offered by hosts 1 to 3 as the benchmark's XOR of a 4 KiB label. It
// returns the problem, its trigger and its goal.
func chainCommunity(t *testing.T, rec *kinds, m *testutil.Meter, obs engine.Observer) (*Community, *clock.Sim, spec.Spec, map[model.LabelID][]byte, model.LabelID) {
	const chain, hosts, size = 6, 4, 4096
	sim := clock.NewSim(stressT0)
	cfg := engine.DefaultConfig()
	cfg.ParallelQuery = true
	cfg.StartDelay, cfg.TaskWindow = 5*time.Millisecond, time.Millisecond
	cfg.CallTimeout = time.Hour
	cfg.LeaseRefreshInterval = time.Hour
	cfg.Observer = obs
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
	return c, sim, problem, map[model.LabelID][]byte{label(0): make([]byte, size)}, label(chain)
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

// splitSession builds the row's community, every task offered by hosts 1
// to 3: host01 specialized in the first half of the chain, host02 in the
// second, host03 in neither.
func splitSession(t *testing.T, rec *kinds, m *testutil.Meter) (*Community, func(*testing.T)) {
	c, session := initiateSession(t, rec, m, func(int) []int { return []int{1, 2, 3} }, nil)
	for i := 0; i < 6; i++ {
		task := model.TaskID(fmt.Sprintf("t%d", i+1))
		one, two := 0.9, 0.1
		if i >= 3 {
			one, two = two, one
		}
		for id, s := range map[proto.Addr]float64{"host01": one, "host02": two, "host03": 0.5} {
			h, _ := c.Host(id)
			if err := h.Services.Register(service.Registration{Descriptor: service.Descriptor{Task: task, Specialization: s}}); err != nil {
				t.Fatal(err)
			}
		}
	}
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
