package community

// Regression test pinning a known chaos seam in the execution protocol,
// and the repair tests around a finished producer.
//
// The seam: a producer finishes its task and publishes the output label
// to its consumers with a single one-way LabelTransfer (exec.publish). A
// consumer on the producer's own host gets the label handed over in
// place, which cannot be lost; the seam concerns only a label that crosses
// hosts. If that transfer is lost in flight — the wireless medium drops
// it, or the producer crashes right after its radio queued the frame —
// nobody ever finds out:
//
//   - the producer believes publishing succeeded (loss is silent on a
//     broadcast medium; send returned nil), and a refresh reports its
//     task finished,
//   - the consumer's inputs never materialize, so its run never starts,
//     the goal never reaches the initiator, and Execute stalls until the
//     caller's context lapses,
//   - the lease refresher — the failure detector behind plan repair —
//     never fires, because every host is alive and answering refreshes.
//
// INTENDED FIX (tracked on the ROADMAP): either label retransmit — the
// producer retains outputs (it already does, for repair) and re-publishes
// on a timer until the consumer acks — or a consumer-side pull: an
// executor whose window approaches with inputs missing asks the producer
// (named in its routing segment) for them. Until one of those lands,
// this test documents the stall so the failure mode stays visible.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openwf/internal/auction"
	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/testutil"
	"openwf/internal/transport/inmem"
)

func TestSeamLostLabelTransferStallsConsumer(t *testing.T) {
	testutil.CheckGoroutines(t)
	sim := clock.NewSim(chaosT0)

	// host00 initiates and knows the whole chain; "prod" can only run t1,
	// "cons" only t2 — the allocation is forced, and the t1→t2 label "m"
	// must cross the prod→cons link.
	cfg := engine.DefaultConfig()
	cfg.StartDelay = 2 * time.Second
	cfg.TaskWindow = time.Second
	cfg.CallTimeout = 10 * time.Second
	cfg.LeaseRefreshInterval = 2 * time.Second
	c, err := New(Options{Clock: sim, Engine: &cfg, Seed: 1}, []HostSpec{
		{ID: "host00", Fragments: []*model.Fragment{
			frag(t, "know-t1", ctask("t1", []model.LabelID{"a"}, []model.LabelID{"m"})),
			frag(t, "know-t2", ctask("t2", []model.LabelID{"m"}, []model.LabelID{"g"})),
		}},
		{ID: "prod", Services: []service.Registration{svc("t1", 10*time.Millisecond)}},
		{ID: "cons", Services: []service.Registration{svc("t2", 10*time.Millisecond)}},
	}...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	s := spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"})
	plan, err := c.Initiate(context.Background(), "host00", s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t1"] != "prod" || plan.Allocations["t2"] != "cons" {
		t.Fatalf("allocation not forced as expected: %+v", plan.Allocations)
	}

	// Lose every frame on the producer→consumer link from here on. Plan
	// segments, triggers, TaskDone, and lease refreshes all travel on
	// other links and stay intact — only the output label transfer dies.
	c.Network().SetLinkLoss("prod", "cons", 1)

	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sim.Advance(200 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		driver.Wait()
	}()

	// The producer finishes and reports done; the consumer stalls with
	// its input lost. Execute can only end by the caller's deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	report, err := c.Execute(ctx, "host00", plan, map[model.LabelID][]byte{"a": []byte("go")})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Execute err = %v, want DeadlineExceeded (the stall); report %+v", err, report)
	}
	if report.Completed {
		t.Fatal("workflow completed despite the lost label transfer")
	}
	if report.TasksDone != 1 {
		t.Errorf("TasksDone = %d, want exactly 1: the producer finished, the consumer never started",
			report.TasksDone)
	}
	if len(report.Failures) != 0 {
		// The stall is silent — that is the seam. A recorded failure here
		// means someone added detection; revisit this test and the
		// intended fix note above.
		t.Errorf("unexpected recorded failures (seam may be fixed): %v", report.Failures)
	}
	if got := report.Goals["g"]; got != nil {
		t.Errorf("goal delivered despite stall: %q", got)
	}
}

// TestSeamFinishedProducerOutlivesItsLease: a producer that finished its
// task long before the workflow ends still holds the run a repair
// re-publishes from. "prod" runs t1 at once and t3 twelve minutes later;
// t2 runs on "cons" in between, six minutes in. The refresher polls prod
// every minute because prod still owes t3, and names t1 as well, so t1's
// lease outlives DefaultCommitLease (five minutes). cons crashes at 5m30s,
// before t2's window; repair re-homes t2 on "spare", and prod re-publishes
// t1's retained output to it. Without the refresh t1's lease lapses at five
// minutes, taking the run along, and Execute stalls.
func TestSeamFinishedProducerOutlivesItsLease(t *testing.T) {
	testutil.CheckGoroutines(t)
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay = time.Second
	cfg.TaskWindow = 6 * time.Minute
	cfg.CallTimeout = 10 * time.Second
	cfg.LeaseRefreshInterval = time.Minute
	c, err := New(Options{Clock: sim, Engine: &cfg, Seed: 1}, []HostSpec{
		{ID: "host00", Fragments: []*model.Fragment{
			frag(t, "know-t1", ctask("t1", []model.LabelID{"a"}, []model.LabelID{"m"})),
			frag(t, "know-t2", ctask("t2", []model.LabelID{"m"}, []model.LabelID{"n"})),
			frag(t, "know-t3", ctask("t3", []model.LabelID{"n"}, []model.LabelID{"g"})),
		}},
		{ID: "prod", Services: []service.Registration{svc("t1", 10*time.Millisecond), svc("t3", 10*time.Millisecond)}},
		{ID: "cons", Services: []service.Registration{svc("t2", 10*time.Millisecond)}},
		{ID: "spare", Services: []service.Registration{svc("t2", 10*time.Millisecond)}},
	}...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	plan, err := c.Initiate(context.Background(), "host00", spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t1"] != "prod" || plan.Allocations["t2"] != "cons" || plan.Allocations["t3"] != "prod" {
		t.Fatalf("allocation not as expected: %+v", plan.Allocations)
	}
	const crash = 5*time.Minute + 30*time.Second
	if err := c.ScheduleFaults([]inmem.Fault{{At: crash, Kind: inmem.FaultCrash, Host: "cons"}}, nil); err != nil {
		t.Fatal(err)
	}
	report, err := executeThroughCrash(t, sim, c, plan, crash)
	if err != nil || !report.Completed {
		t.Fatalf("Execute = %+v, err %v; want completion after t2 is re-homed and fed from t1's retained run", report, err)
	}
	if got := plan.Allocations["t2"]; got != "spare" {
		t.Errorf("t2 re-homed on %q, want spare", got)
	}
}

// executeThroughCrash executes plan from host00 with the trigger "a" while
// the clock runs: a second of virtual time per step, but 50 ms in the two
// minutes after the crash, around the repair's auction, whose bids hold
// their slots for 200 ms. The virtual clock bounds the wait: past twenty
// minutes, the workflow has stalled, and Execute returns its context's
// error.
func executeThroughCrash(t *testing.T, sim *clock.Sim, c *Community, plan *engine.Plan, crash time.Duration) (*engine.Report, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		start := sim.Now()
		for {
			select {
			case <-stop:
				return
			default:
			}
			step, at := time.Second, sim.Since(start)
			if at > crash && at < crash+2*time.Minute {
				step = 50 * time.Millisecond
			}
			if at > 20*time.Minute {
				cancel()
			}
			sim.Advance(step)
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		driver.Wait()
	}()
	return c.Execute(ctx, "host00", plan, map[model.LabelID][]byte{"a": []byte("go")})
}

// TestSeamFinishedProducerRefreshedThoughItOwesNothing: the refresher
// polls every executor of the plan, a host whose every task has finished
// included. "prod" runs t1 at once and owes nothing after; t2 runs on
// "cons" six minutes in. cons crashes one lease and thirty seconds in,
// before t2's window; repair re-homes t2 on "spare", and prod re-publishes
// t1's retained output to it. Were prod not refreshed, t1's lease would
// lapse at five minutes, taking the run along, and Execute would stall.
func TestSeamFinishedProducerRefreshedThoughItOwesNothing(t *testing.T) {
	testutil.CheckGoroutines(t)
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay = time.Second
	cfg.TaskWindow = 6 * time.Minute
	cfg.CallTimeout = 10 * time.Second
	cfg.LeaseRefreshInterval = time.Minute
	c, err := New(Options{Clock: sim, Engine: &cfg, Seed: 1}, []HostSpec{
		{ID: "host00", Fragments: []*model.Fragment{
			frag(t, "know-t1", ctask("t1", []model.LabelID{"a"}, []model.LabelID{"m"})),
			frag(t, "know-t2", ctask("t2", []model.LabelID{"m"}, []model.LabelID{"g"})),
		}},
		{ID: "prod", Services: []service.Registration{svc("t1", 10*time.Millisecond)}},
		{ID: "cons", Services: []service.Registration{svc("t2", 10*time.Millisecond)}},
		{ID: "spare", Services: []service.Registration{svc("t2", 10*time.Millisecond)}},
	}...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	plan, err := c.Initiate(context.Background(), "host00", spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t1"] != "prod" || plan.Allocations["t2"] != "cons" {
		t.Fatalf("allocation not as expected: %+v", plan.Allocations)
	}
	const crash = auction.DefaultCommitLease + 30*time.Second
	if err := c.ScheduleFaults([]inmem.Fault{{At: crash, Kind: inmem.FaultCrash, Host: "cons"}}, nil); err != nil {
		t.Fatal(err)
	}
	report, err := executeThroughCrash(t, sim, c, plan, crash)
	if err != nil || !report.Completed {
		t.Fatalf("Execute = %+v, err %v; want completion after t2 is re-homed and fed from t1's refreshed run", report, err)
	}
	if got := plan.Allocations["t2"]; got != "spare" {
		t.Errorf("t2 re-homed on %q, want spare", got)
	}
}

// countedSvc is a service for task that counts its invocations in n and
// outputs data as m.
func countedSvc(task string, n *atomic.Int32, data string) service.Registration {
	return service.Registration{
		Descriptor: service.Descriptor{Task: model.TaskID(task), Duration: 10 * time.Millisecond, Specialization: 0.5},
		Fn: func(service.Invocation) (service.Outputs, error) {
			n.Add(1)
			return service.Outputs{"m": []byte(data)}, nil
		},
	}
}

// echoSvc is a service for task that outputs its input m as g.
func echoSvc(task string) service.Registration {
	return service.Registration{
		Descriptor: service.Descriptor{Task: model.TaskID(task), Duration: 10 * time.Millisecond, Specialization: 0.5},
		Fn: func(inv service.Invocation) (service.Outputs, error) {
			return service.Outputs{"g": inv.Inputs["m"]}, nil
		},
	}
}

// TestRepairKeepsProducerOfReportedConsumer: a task on a dead host is not
// run again once a consumer of its output is reported finished, since a
// run starts only once its inputs are in. The chain a → t1 → m → t2 → n →
// t3 → g runs t1 on "p1" at 1s, t2 on "p2" at 41s and t3 on "p3" at 81s;
// p1 crashes at 50s, before any refresh has asked it. At the refresh at
// one minute p1 is dead, but p2 reports t2 finished, and with it t1.
// "spare" offers t1 and t3 and wins neither; it is never asked.
func TestRepairKeepsProducerOfReportedConsumer(t *testing.T) {
	testutil.CheckGoroutines(t)
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay = time.Second
	cfg.TaskWindow = 40 * time.Second
	cfg.CallTimeout = 10 * time.Second
	cfg.LeaseRefreshInterval = time.Minute
	var t1Runs atomic.Int32
	c, err := New(Options{Clock: sim, Engine: &cfg, Seed: 1}, []HostSpec{
		{ID: "host00", Fragments: []*model.Fragment{
			frag(t, "know-t1", ctask("t1", []model.LabelID{"a"}, []model.LabelID{"m"})),
			frag(t, "know-t2", ctask("t2", []model.LabelID{"m"}, []model.LabelID{"n"})),
			frag(t, "know-t3", ctask("t3", []model.LabelID{"n"}, []model.LabelID{"g"})),
		}},
		{ID: "p1", Services: []service.Registration{countedSvc("t1", &t1Runs, "p1")}},
		{ID: "p2", Services: []service.Registration{svc("t2", 10*time.Millisecond)}},
		{ID: "p3", Services: []service.Registration{svc("t3", 10*time.Millisecond)}},
		{ID: "spare", Services: []service.Registration{countedSvc("t1", &t1Runs, "spare"), svc("t3", 10*time.Millisecond)}},
	}...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	plan, err := c.Initiate(context.Background(), "host00", spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t1"] != "p1" || plan.Allocations["t2"] != "p2" || plan.Allocations["t3"] != "p3" {
		t.Fatalf("allocation not as expected: %+v", plan.Allocations)
	}
	const crash = 50 * time.Second
	if err := c.ScheduleFaults([]inmem.Fault{{At: crash, Kind: inmem.FaultCrash, Host: "p1"}}, nil); err != nil {
		t.Fatal(err)
	}
	report, err := executeThroughCrash(t, sim, c, plan, crash)
	if err != nil || !report.Completed {
		t.Fatalf("Execute = %+v, err %v; want completion with t1 left on its dead host", report, err)
	}
	if got := plan.Allocations["t1"]; got != "p1" {
		t.Errorf("t1 re-homed on %q, want it left on p1", got)
	}
	if got := t1Runs.Load(); got != 1 {
		t.Errorf("t1 ran %d times, want once", got)
	}
}

// TestRepairRerunsProducerFinishedUnreported: a task that finished on a
// host that died before any refresh asked it, while its consumer has not
// finished, runs again on a survivor, and the consumer keeps the label
// that arrived first. t1 runs on "p1" at 1s and publishes m to t2 on "p2",
// whose window opens at 2m1s; p1 crashes at 30s. At the refresh at one
// minute t1 is not known finished, so repair re-homes it on "spare", which
// publishes m again: p2 drops the duplicate, and the goal carries p1's m.
func TestRepairRerunsProducerFinishedUnreported(t *testing.T) {
	testutil.CheckGoroutines(t)
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay = time.Second
	cfg.TaskWindow = 2 * time.Minute
	cfg.CallTimeout = 10 * time.Second
	cfg.LeaseRefreshInterval = time.Minute
	var t1Runs atomic.Int32
	c, err := New(Options{Clock: sim, Engine: &cfg, Seed: 1}, []HostSpec{
		{ID: "host00", Fragments: []*model.Fragment{
			frag(t, "know-t1", ctask("t1", []model.LabelID{"a"}, []model.LabelID{"m"})),
			frag(t, "know-t2", ctask("t2", []model.LabelID{"m"}, []model.LabelID{"g"})),
		}},
		{ID: "p1", Services: []service.Registration{countedSvc("t1", &t1Runs, "p1")}},
		{ID: "p2", Services: []service.Registration{echoSvc("t2")}},
		{ID: "spare", Services: []service.Registration{countedSvc("t1", &t1Runs, "spare"), echoSvc("t2")}},
	}...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	plan, err := c.Initiate(context.Background(), "host00", spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t1"] != "p1" || plan.Allocations["t2"] != "p2" {
		t.Fatalf("allocation not as expected: %+v", plan.Allocations)
	}
	const crash = 30 * time.Second
	if err := c.ScheduleFaults([]inmem.Fault{{At: crash, Kind: inmem.FaultCrash, Host: "p1"}}, nil); err != nil {
		t.Fatal(err)
	}
	report, err := executeThroughCrash(t, sim, c, plan, crash)
	if err != nil || !report.Completed {
		t.Fatalf("Execute = %+v, err %v; want completion after t1 runs again on spare", report, err)
	}
	if got := plan.Allocations["t1"]; got != "spare" {
		t.Errorf("t1 re-homed on %q, want spare", got)
	}
	if got := t1Runs.Load(); got != 2 {
		t.Errorf("t1 ran %d times, want twice: on p1 and again on spare", got)
	}
	if got := string(report.Goals["g"]); got != "p1" {
		t.Errorf("goal = %q, want p1's m: the consumer keeps the first arrival", got)
	}
}
