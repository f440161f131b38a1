// Command expedition demonstrates open workflows under the conditions the
// paper motivates them with (§1): a remote scientific expedition whose
// members are mobile, whose connectivity is intermittent, and whose needs
// arrive one after another. It exercises three things the other examples
// do not combine:
//
//   - several problems posed in sequence against the same community,
//     competing for the same specialists' schedules;
//
//   - a network partition in the middle of an execution, survived thanks
//     to the simulated network's store-and-forward (delay-tolerant)
//     delivery; and
//
//   - allocation preferring the less versatile participant (the paper's
//     fewest-services selection criterion), visible in who gets the
//     sampling work.
//
//     go run ./examples/expedition
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

func step(id string, in, out string) openwf.Task {
	return openwf.Task{
		ID:      openwf.TaskID(id),
		Mode:    openwf.Conjunctive,
		Inputs:  lbl(in),
		Outputs: lbl(out),
	}
}

func act(who, id string) openwf.ServiceRegistration {
	return openwf.TimedService(openwf.TaskID(id), 2*time.Millisecond,
		func(inv openwf.Invocation) (openwf.Outputs, error) {
			fmt.Printf("  [%s] %s\n", who, inv.Task)
			return nil, nil
		})
}

func main() {
	// The expedition: a leader, a geologist (sampling specialist), a
	// field technician (jack of many trades — more services, so the
	// auction prefers the geologist for sampling), and a radio operator.
	leader := openwf.HostSpec{ID: "leader"}
	geologist := openwf.HostSpec{
		ID: "geologist",
		Fragments: []*openwf.Fragment{
			openwf.MustFragment("sampling",
				step("collect rock samples", "site located", "samples collected")),
		},
		Services: []openwf.ServiceRegistration{
			act("geologist", "collect rock samples"),
		},
	}
	technician := openwf.HostSpec{
		ID: "technician",
		Fragments: []*openwf.Fragment{
			openwf.MustFragment("survey",
				step("survey terrain", "area assigned", "site located")),
			openwf.MustFragment("repairs",
				step("repair antenna", "antenna damaged", "antenna working")),
		},
		Services: []openwf.ServiceRegistration{
			act("technician", "survey terrain"),
			act("technician", "repair antenna"),
			// The technician could also sample, but offers many
			// services; the auction keeps them free.
			act("technician", "collect rock samples"),
		},
	}
	radio := openwf.HostSpec{
		ID: "radio-op",
		Fragments: []*openwf.Fragment{
			openwf.MustFragment("uplink",
				step("transmit findings", "samples collected", "findings transmitted")),
		},
		Services: []openwf.ServiceRegistration{
			act("radio-op", "transmit findings"),
		},
	}

	cfg := openwf.DefaultEngineConfig()
	cfg.StartDelay = 250 * time.Millisecond
	cfg.TaskWindow = 40 * time.Millisecond
	com, err := openwf.NewCommunity(
		[]openwf.HostSpec{leader, geologist, technician, radio},
		// The camp's radios buffer across outages.
		openwf.Options{Engine: &cfg, StoreAndForward: true},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer com.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Problem 1: the day's science tasking, end to end.
	fmt.Println("=== problem 1: survey, sample, and report ===")
	plan1, err := com.Initiate(ctx, "leader", openwf.MustSpec(
		lbl("area assigned"), lbl("findings transmitted")))
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range plan1.Workflow.TopoOrder() {
		fmt.Printf("  plan: %-24s → %s\n", id, plan1.Allocations[id])
	}
	if plan1.Allocations["collect rock samples"] != "geologist" {
		log.Fatalf("selection criterion violated: sampling went to %v",
			plan1.Allocations["collect rock samples"])
	}

	// A sandstorm cuts the radio operator off mid-execution; the
	// buffered label transfers arrive once the link returns.
	go func() {
		time.Sleep(300 * time.Millisecond)
		fmt.Println("  -- sandstorm: radio operator unreachable --")
		com.Network().SetPartition(
			[]openwf.Addr{"leader", "geologist", "technician"},
			[]openwf.Addr{"radio-op"},
		)
		time.Sleep(250 * time.Millisecond)
		fmt.Println("  -- link restored --")
		com.Network().SetPartition()
	}()
	report1, err := com.Execute(ctx, "leader", plan1, map[openwf.LabelID][]byte{
		"area assigned": []byte("ridge north of camp"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  completed: %v in %v (%d tasks)\n\n",
		report1.Completed, report1.Elapsed.Round(time.Millisecond), report1.TasksDone)
	if !report1.Completed {
		log.Fatalf("survey not completed: %v", report1.Failures)
	}

	// Problem 2: while the science plan wraps up, the antenna breaks.
	// Only the technician can fix it; the engine finds a window that
	// does not collide with the technician's surveying commitment.
	fmt.Println("=== problem 2: unexpected repair, same community ===")
	plan2, err := com.Initiate(ctx, "radio-op", openwf.MustSpec(
		lbl("antenna damaged"), lbl("antenna working")))
	if err != nil {
		log.Fatal(err)
	}
	report2, err := com.Execute(ctx, "radio-op", plan2, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  completed: %v in %v — %q repaired by %s\n",
		report2.Completed, report2.Elapsed.Round(time.Millisecond),
		"antenna", plan2.Allocations["repair antenna"])
	if !report2.Completed {
		log.Fatalf("repair not completed: %v", report2.Failures)
	}
}
