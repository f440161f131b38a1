package community

// The loss contract from the executor's side: a failure report is a
// request, told again after every try that gets no answer, so losing one
// costs the initiator a call timeout, not the caller's whole deadline.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/service"
	"openwf/internal/spec"
)

// TestLostFailureReportIsRetried: "exec", the only provider of t1, fails
// it, and its link to the initiator loses every frame until the first
// failure report is dropped; then the loss is lifted. The report is sent
// again after its call times out, the initiator hears it once, and Execute
// returns the failure well before the caller's deadline. With a one-way
// report the loss went unnoticed and Execute waited out the deadline.
func TestLostFailureReportIsRetried(t *testing.T) {
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay, cfg.TaskWindow = 2*time.Second, time.Second
	cfg.CallTimeout = 10 * time.Second
	cfg.LeaseRefreshInterval = time.Hour
	rec := &kinds{counts: make(map[string]int)}
	c := newTestCommunity(t, Options{Clock: sim, Engine: &cfg, Trace: rec, Seed: 1}, []HostSpec{
		{ID: "host00", Fragments: []*model.Fragment{
			frag(t, "know-t1", ctask("t1", []model.LabelID{"a"}, []model.LabelID{"g"})),
		}},
		{ID: "exec", Services: []service.Registration{{
			Descriptor: service.Descriptor{Task: "t1", Specialization: 0.5},
			Fn: func(service.Invocation) (service.Outputs, error) {
				return nil, errors.New("out of order")
			},
		}}},
	}...)
	plan, err := c.Initiate(ctxTimeout(t, 10*time.Second), "host00", spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t1"] != "exec" {
		t.Fatalf("allocations = %v, want t1 on exec", plan.Allocations)
	}
	rec.take()
	net := c.Network()
	net.SetLinkLoss("exec", "host00", 1)

	// Drive the clock; lift the loss once it has dropped a frame.
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		lossy := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			if lossy && net.Stats().FramesDropped > 0 {
				net.SetLinkLoss("exec", "host00", 0)
				lossy = false
			}
			sim.Advance(200 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		driver.Wait()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	report, err := c.Execute(ctx, "host00", plan, map[model.LabelID][]byte{"a": []byte("go")})
	if err != nil {
		t.Fatalf("Execute err = %v, want it to return on the failure; report %+v", err, report)
	}
	if report.Completed || len(report.Failures) != 1 || !strings.HasPrefix(report.Failures[0], "t1: ") {
		t.Errorf("report = %+v, want one failure naming t1", report)
	}
	if n := net.Stats().FramesDropped; n != 1 {
		t.Errorf("%d frames dropped, want exactly the first failure report", n)
	}
	if n := rec.take()["task-done"]; n != 1 {
		t.Errorf("the initiator heard %d failure reports, want 1", n)
	}
	waitClean(t, c)
}
