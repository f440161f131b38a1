package community

// Regression test pinning a known chaos seam in the execution protocol.
//
// The seam: a producer finishes its task and publishes the output label
// to its consumers with a single one-way LabelTransfer (exec.publish),
// then reports TaskDone to the initiator. A consumer on the producer's own
// host gets the label handed over in place, which cannot be lost; the seam
// concerns only a label that crosses hosts. If that transfer is lost in
// flight — the wireless medium drops it, or the producer crashes right
// after its radio queued the frame — nobody ever finds out:
//
//   - the producer believes publishing succeeded (loss is silent on a
//     broadcast medium; send returned nil),
//   - the initiator sees TaskDone and keeps waiting for the rest,
//   - the consumer's inputs never materialize, so its run never starts,
//     its TaskDone never arrives, and Execute stalls until the caller's
//     context lapses,
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
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/testutil"
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
