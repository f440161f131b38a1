// Command catering reproduces the paper's motivating example (§2.1,
// Figure 1): a corporate catering facility organizes meals for an
// executive meeting. The manager poses the problem; knowhow is scattered
// across the master chef's, kitchen staff's, and wait staff's devices.
// The program runs three contexts to show the system's sensitivity to
// knowledge, capabilities, and availability:
//
//  1. the whole office is present — omelets and table service win;
//
//  2. the master chef is out — the omelet fragment is never collected, so
//     a breakfast alternative is chosen;
//
//  3. the wait staff is absent — the knowhow for table service is still
//     known, but nobody can perform it, so buffet service is selected.
//
//     go run ./examples/catering
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"openwf"
)

func lbl(ls ...string) []openwf.LabelID {
	out := make([]openwf.LabelID, len(ls))
	for i, l := range ls {
		out[i] = openwf.LabelID(l)
	}
	return out
}

func task(id string, in, out string) openwf.Task {
	return openwf.Task{
		ID:      openwf.TaskID(id),
		Mode:    openwf.Conjunctive,
		Inputs:  lbl(in),
		Outputs: lbl(out),
	}
}

// userAction simulates a service a person performs (the paper's
// click-when-done form): it takes a moment and reports what happened.
func userAction(id string, d time.Duration) openwf.ServiceRegistration {
	return openwf.TimedService(openwf.TaskID(id), d,
		func(inv openwf.Invocation) (openwf.Outputs, error) {
			return nil, nil // produce all declared outputs as conditions
		})
}

// office builds the catering community. chefPresent/waitersPresent model
// who is in the office today.
func office(chefPresent, waitersPresent bool) ([]openwf.HostSpec, error) {
	manager := openwf.HostSpec{ID: "manager"}

	kitchen := openwf.HostSpec{
		ID: "kitchen-staff",
		Fragments: []*openwf.Fragment{
			openwf.MustFragment("omelet-bar-setup",
				task("set out ingredients", "breakfast ingredients", "omelet bar setup")),
			openwf.MustFragment("pancake-breakfast",
				task("make pancakes", "breakfast ingredients", "buffet items prepared"),
				task("serve breakfast buffet", "buffet items prepared", "breakfast served")),
			openwf.MustFragment("doughnut-breakfast",
				task("pick up doughnuts", "doughnuts ordered", "doughnuts available"),
				task("set out doughnuts", "doughnuts available", "breakfast served")),
			openwf.MustFragment("lunch-prep",
				task("prepare soup and salad", "lunch ingredients", "lunch prepared")),
			openwf.MustFragment("box-lunches",
				task("pick up box lunches", "box lunches ordered", "box lunches available"),
				task("set out box lunches", "box lunches available", "lunch served")),
			// Everyone in the office knows lunch can be served as a
			// buffet; only the wait staff can serve tables.
			openwf.MustFragment("lunch-buffet",
				task("set out lunch buffet", "lunch prepared", "lunch served")),
		},
		Services: []openwf.ServiceRegistration{
			userAction("set out ingredients", 2*time.Millisecond),
			userAction("make pancakes", 2*time.Millisecond),
			userAction("serve breakfast buffet", 2*time.Millisecond),
			userAction("prepare soup and salad", 2*time.Millisecond),
			userAction("set out lunch buffet", 2*time.Millisecond),
			userAction("pick up doughnuts", 2*time.Millisecond),
			userAction("set out doughnuts", 2*time.Millisecond),
		},
	}

	chef := openwf.HostSpec{
		ID: "master-chef",
		Fragments: []*openwf.Fragment{
			openwf.MustFragment("omelets",
				task("cook omelets", "omelet bar setup", "breakfast served")),
			openwf.MustFragment("lunch-tables-knowhow",
				task("serve tables", "lunch prepared", "lunch served")),
		},
		Services: []openwf.ServiceRegistration{
			userAction("cook omelets", 2*time.Millisecond),
		},
	}

	waiters := openwf.HostSpec{
		ID: "wait-staff",
		Fragments: []*openwf.Fragment{
			openwf.MustFragment("lunch-tables",
				task("serve tables", "lunch prepared", "lunch served")),
		},
		Services: []openwf.ServiceRegistration{
			userAction("serve tables", 2*time.Millisecond),
		},
	}

	specs := []openwf.HostSpec{manager, kitchen}
	if chefPresent {
		specs = append(specs, chef)
	}
	if waitersPresent {
		specs = append(specs, waiters)
	}
	return specs, nil
}

func runScenario(title string, chefPresent, waitersPresent bool, execute bool) {
	fmt.Printf("\n=== %s ===\n", title)
	hosts, err := office(chefPresent, waitersPresent)
	if err != nil {
		log.Fatal(err)
	}
	cfg := openwf.DefaultEngineConfig()
	cfg.StartDelay = 200 * time.Millisecond
	cfg.TaskWindow = 50 * time.Millisecond
	com, err := openwf.NewCommunity(hosts, openwf.Options{Engine: &cfg})
	if err != nil {
		log.Fatal(err)
	}
	defer com.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// The executive assistant requested breakfast and lunch; the
	// manager adds the request on her device.
	request := openwf.MustSpec(
		lbl("breakfast ingredients", "lunch ingredients"),
		lbl("breakfast served", "lunch served"),
	)
	plan, err := com.Initiate(ctx, "manager", request)
	if err != nil {
		log.Fatalf("constructing: %v", err)
	}
	fmt.Println("workflow and schedule of commitments:")
	for _, id := range plan.Workflow.TopoOrder() {
		t, _ := plan.Workflow.Task(id)
		fmt.Printf("  %-28s %-14s (%v -> %v)\n",
			t.ID, plan.Allocations[id], t.Inputs, t.Outputs)
	}
	if !execute {
		return
	}
	report, err := com.Execute(ctx, "manager", plan, nil)
	if err != nil {
		log.Fatalf("executing: %v", err)
	}
	fmt.Printf("meals ready: %v (%d activities performed in %v)\n",
		report.Completed, report.TasksDone, report.Elapsed.Round(time.Millisecond))
	if !report.Completed {
		log.Fatalf("meals not ready: %v", report.Failures)
	}
}

func main() {
	runScenario("full office: omelets and table service available", true, true, true)
	runScenario("master chef out: omelet knowhow never collected", false, true, false)
	runScenario("wait staff absent: table service infeasible, buffet chosen", true, false, false)
}
