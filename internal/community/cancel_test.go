package community

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
)

// The goroutine-leak and hold-leak checks these tests pioneered now live
// in internal/testutil and are folded into every community test via
// newTestCommunity (see community_test.go).

// TestInitiateCanceledPromptly: cancellation mid-construction (the
// latency model makes every community query slow) returns
// context.Canceled in well under the query latency, and closing the
// community afterwards leaks no goroutines.
func TestInitiateCanceledPromptly(t *testing.T) {
	c := newTestCommunity(t, Options{
		Engine:    testEngineConfig(),
		LinkModel: func(_, _ proto.Addr, _ int, _ *rand.Rand) (time.Duration, bool) { return 2 * time.Second, false },
	}, cateringSpecs(t, true, true)...)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Initiate(ctx, "manager", cateringSpec)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v; the 2s link latency leaked into the wait", elapsed)
	}
}

// TestExecuteCanceledPromptly: cancellation mid-execution (a service
// that takes far longer than the test) returns context.Canceled at once;
// closing the community interrupts the in-flight invocation, so no
// goroutine is left sleeping out the hour.
func TestExecuteCanceledPromptly(t *testing.T) {
	specs := []HostSpec{
		{ID: "manager"},
		{
			ID: "worker",
			Fragments: []*model.Fragment{
				frag(t, "slow-know", ctask("slow work", lbl("go"), lbl("done"))),
			},
			Services: []service.Registration{svc("slow work", time.Hour)},
		},
	}
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, specs...)

	plan, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("go"), lbl("done")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	report, err := c.Execute(ctx, "manager", plan, map[model.LabelID][]byte{"go": nil})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
	if report == nil || report.Completed {
		t.Fatalf("report = %+v, want incomplete partial report", report)
	}
}
