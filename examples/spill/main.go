// Command spill reproduces the motivating scenario of the paper's
// introduction: a construction worker discovers a mercury spill. The
// prescribed response lives in his supervisor's head, access to the spill
// requires dismantling a support structure that only the chief engineer
// can manage, and a hazmat-equipped crew must perform the cleanup. The
// result — which in the paper is "a series of frantic phone calls" — is
// here a dynamically constructed workflow whose tasks carry locations:
// commitments include travel time across the site, and mobile
// participants physically move to their tasks during execution.
//
//	go run ./examples/spill
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

func main() {
	// Site map (meters). The spill is in the north hall; people start
	// at different corners of the site. The coordinates are scaled down
	// so the demo's real-time travel takes seconds rather than minutes;
	// the scheduling math is identical at any scale.
	spillSite := openwf.Point{X: 2, Y: 4}
	officeLoc := openwf.Point{X: 0, Y: 0}
	depotLoc := openwf.Point{X: 4, Y: 0.5}

	announce := func(who string) openwf.ServiceFunc {
		return func(inv openwf.Invocation) (openwf.Outputs, error) {
			fmt.Printf("  [%s] performing %q\n", who, inv.Task)
			return nil, nil
		}
	}

	worker := openwf.HostSpec{
		ID:       "worker",
		Location: spillSite, // he found the spill; he is standing there
		Speed:    1.5,
	}

	supervisor := openwf.HostSpec{
		ID:       "supervisor",
		Location: officeLoc,
		Speed:    1.5, // m/s on foot
		Fragments: []*openwf.Fragment{
			// The prescribed response she was trained on.
			openwf.MustFragment("spill-response",
				openwf.Task{ID: "assess spill", Mode: openwf.Conjunctive,
					Inputs:  lbl("mercury spill reported"),
					Outputs: lbl("containment plan")},
				openwf.Task{ID: "supervise cleanup", Mode: openwf.Conjunctive,
					Inputs:  lbl("containment plan", "area accessible", "equipment on site"),
					Outputs: lbl("spill contained")}),
		},
		Services: []openwf.ServiceRegistration{
			openwf.TimedService("assess spill", 5*time.Millisecond, announce("supervisor")),
			openwf.LocatedService("supervise cleanup", spillSite, 10*time.Millisecond, announce("supervisor")),
		},
	}

	chiefEngineer := openwf.HostSpec{
		ID:       "chief-engineer",
		Location: depotLoc,
		Speed:    2.0,
		Fragments: []*openwf.Fragment{
			// Only he knows how the support structure comes apart.
			openwf.MustFragment("dismantling",
				openwf.Task{ID: "dismantle support structure", Mode: openwf.Conjunctive,
					Inputs:  lbl("containment plan"),
					Outputs: lbl("area accessible")}),
		},
		Services: []openwf.ServiceRegistration{
			openwf.LocatedService("dismantle support structure", spillSite,
				10*time.Millisecond, announce("chief-engineer")),
		},
	}

	hazmatCrew := openwf.HostSpec{
		ID:       "hazmat-crew",
		Location: depotLoc,
		Speed:    3.0, // they have a cart
		Fragments: []*openwf.Fragment{
			openwf.MustFragment("equipment-dispatch",
				openwf.Task{ID: "dispatch cleanup equipment", Mode: openwf.Conjunctive,
					Inputs:  lbl("containment plan"),
					Outputs: lbl("equipment on site")}),
		},
		Services: []openwf.ServiceRegistration{
			openwf.LocatedService("dispatch cleanup equipment", spillSite,
				10*time.Millisecond, announce("hazmat-crew")),
		},
	}

	cfg := openwf.DefaultEngineConfig()
	// The site is ~5 m across and people move at 1.5-3 m/s, so every
	// journey fits in the ~3 s of headroom before each window.
	cfg.StartDelay = 3 * time.Second
	cfg.TaskWindow = 3 * time.Second
	com, err := openwf.NewCommunity(
		[]openwf.HostSpec{worker, supervisor, chiefEngineer, hazmatCrew},
		openwf.Options{Engine: &cfg})
	if err != nil {
		log.Fatal(err)
	}
	defer com.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The worker reports the spill; the goal is a contained spill.
	problem := openwf.MustSpec(lbl("mercury spill reported"), lbl("spill contained"))
	plan, err := com.Initiate(ctx, "worker", problem)
	if err != nil {
		log.Fatalf("constructing response: %v", err)
	}

	// A located service imposes its location on the winner's commitment,
	// not on the plan's metas, so the place is read from the winner's
	// calendar.
	fmt.Println("coordinated response (instead of frantic phone calls):")
	for _, id := range plan.Workflow.TopoOrder() {
		t, _ := plan.Workflow.Task(id)
		winner := plan.Allocations[id]
		where := "anywhere"
		h, _ := com.Host(winner)
		if c, ok := h.Schedule.Get(plan.WorkflowID, id); ok && c.Meta.Location != nil {
			where = c.Meta.Location.String()
		}
		fmt.Printf("  %-30s → %-15s window %s  at %s\n",
			t.ID, winner, plan.Metas[id].Start.Format("15:04:05.000"), where)
	}

	// Show the committed travel plans before execution.
	fmt.Println("commitments (with travel blocked out):")
	for _, hostID := range com.Members() {
		h, _ := com.Host(hostID)
		for _, c := range h.Schedule.Commitments() {
			travel := c.Start.Sub(c.TravelStart).Round(time.Second)
			fmt.Printf("  %-15s %-30s travel %8v, starts %s\n",
				hostID, c.Task, travel, c.Start.Format("15:04:05.000"))
		}
	}

	report, err := com.Execute(ctx, "worker", plan, map[openwf.LabelID][]byte{
		"mercury spill reported": []byte("north hall, ~200ml, spreading"),
	})
	if err != nil {
		log.Fatalf("executing response: %v", err)
	}
	fmt.Printf("spill contained: %v (%d tasks in %v)\n",
		report.Completed, report.TasksDone, report.Elapsed.Round(time.Millisecond))
	if !report.Completed {
		log.Fatalf("spill not contained: %v", report.Failures)
	}
}
