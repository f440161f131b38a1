package evalgen

import (
	"context"
	"math/rand"
	"testing"

	"openwf/internal/community"
	"openwf/internal/engine"
)

// TestPropPipelineOnRandomScenarios is the whole-system property test:
// for random evaluation scenarios (random supergraph, random distribution
// of knowledge and capabilities, random specifications), the pipeline
// must always produce a fully allocated plan in which
//
//   - the workflow satisfies the specification,
//   - the workflow has exactly the requested number of tasks (the
//     disjunctive min-distance rule finds the shortest chain),
//   - every task is allocated to a host that actually offers the service,
//     and
//   - every allocated host holds a commitment for its task.
func TestPropPipelineOnRandomScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tasks := 20 + rng.Intn(60)
		hosts := 2 + rng.Intn(5)
		sc, err := Generate(tasks, rng)
		if err != nil {
			t.Fatal(err)
		}
		engCfg := EvalEngineConfig()
		comm, addrs, err := BuildCommunity(sc, ExperimentConfig{
			Tasks: tasks, Hosts: hosts, Community: community.Options{Seed: seed, Engine: &engCfg},
		}, rng)
		if err != nil {
			t.Fatal(err)
		}

		for run := 0; run < 5; run++ {
			length := 2 + rng.Intn(6)
			s, ok := sc.SamplePath(length, rng)
			if !ok {
				continue
			}
			initiator := addrs[rng.Intn(len(addrs))]
			plan, err := comm.Initiate(context.Background(), initiator, s)
			if err != nil {
				t.Fatalf("seed=%d run=%d: %v", seed, run, err)
			}
			checkPlan(t, comm, plan, length, seed, run)
			comm.ResetSchedules()
		}
		if err := comm.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func checkPlan(t *testing.T, comm *community.Community, plan *engine.Plan, length int, seed int64, run int) {
	t.Helper()
	if !plan.Spec.Satisfies(plan.Workflow) {
		t.Fatalf("seed=%d run=%d: spec unsatisfied:\n%v", seed, run, plan.Workflow)
	}
	if plan.Workflow.NumTasks() != length {
		t.Fatalf("seed=%d run=%d: %d tasks, want %d",
			seed, run, plan.Workflow.NumTasks(), length)
	}
	if len(plan.Allocations) != plan.Workflow.NumTasks() {
		t.Fatalf("seed=%d run=%d: partial allocation", seed, run)
	}
	for task, hostID := range plan.Allocations {
		h, ok := comm.Host(hostID)
		if !ok {
			t.Fatalf("seed=%d run=%d: unknown host %q", seed, run, hostID)
		}
		if _, can := h.Services.CanPerform(task); !can {
			t.Fatalf("seed=%d run=%d: %q allocated to %q without the service",
				seed, run, task, hostID)
		}
		if _, ok := h.Schedule.Get(plan.WorkflowID, task); !ok {
			t.Fatalf("seed=%d run=%d: winner %q has no commitment for %q",
				seed, run, hostID, task)
		}
	}
}
