// Command quickstart is the smallest complete open-workflow program:
// three devices form a community, one poses a problem, the system
// dynamically constructs a workflow from the others' knowhow, allocates
// its tasks by auction, and executes it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"openwf"
)

func main() {
	// A tiny field team: a coordinator with no skills of its own, a
	// scout who knows how to survey a site, and an operator who knows
	// how to file the report the survey enables.
	com, err := openwf.NewCommunity([]openwf.HostSpec{
		{ID: "coordinator"},
		{
			ID: "scout",
			Fragments: []*openwf.Fragment{
				openwf.MustFragment("survey-knowhow", openwf.Task{
					ID:      "survey site",
					Mode:    openwf.Conjunctive,
					Inputs:  []openwf.LabelID{"site assigned"},
					Outputs: []openwf.LabelID{"survey data"},
				}),
			},
			Services: []openwf.ServiceRegistration{
				openwf.TimedService("survey site", 5*time.Millisecond,
					func(inv openwf.Invocation) (openwf.Outputs, error) {
						return openwf.Outputs{
							"survey data": []byte("3 structures, 2 access roads"),
						}, nil
					}),
			},
		},
		{
			ID: "operator",
			Fragments: []*openwf.Fragment{
				openwf.MustFragment("report-knowhow", openwf.Task{
					ID:      "file report",
					Mode:    openwf.Conjunctive,
					Inputs:  []openwf.LabelID{"survey data"},
					Outputs: []openwf.LabelID{"report filed"},
				}),
			},
			Services: []openwf.ServiceRegistration{
				openwf.TimedService("file report", 5*time.Millisecond,
					func(inv openwf.Invocation) (openwf.Outputs, error) {
						report := fmt.Sprintf("REPORT[%s]", inv.Inputs["survey data"])
						return openwf.Outputs{"report filed": []byte(report)}, nil
					}),
			},
		},
	}, openwf.Options{Engine: engineConfig()})
	if err != nil {
		log.Fatalf("building community: %v", err)
	}
	defer com.Close()

	// One context bounds the whole request: construction, allocation,
	// and execution.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The coordinator identifies a need: a site was assigned, and a
	// filed report is the goal. Nobody wrote this workflow; the engine
	// assembles it from the community's fragments.
	problem := openwf.MustSpec(
		[]openwf.LabelID{"site assigned"},
		[]openwf.LabelID{"report filed"},
	)
	plan, err := com.Initiate(ctx, "coordinator", problem)
	if err != nil {
		log.Fatalf("constructing workflow: %v", err)
	}
	fmt.Println("constructed workflow:")
	for _, t := range plan.Workflow.Tasks() {
		fmt.Printf("  %s   → allocated to %s\n", t, plan.Allocations[t.ID])
	}

	report, err := com.Execute(ctx, "coordinator", plan, map[openwf.LabelID][]byte{
		"site assigned": []byte("sector 7"),
	})
	if err != nil {
		log.Fatalf("executing workflow: %v", err)
	}
	fmt.Printf("completed: %v (%d tasks, %v)\n",
		report.Completed, report.TasksDone, report.Elapsed.Round(time.Millisecond))
	if !report.Completed {
		log.Fatalf("workflow not completed: %v", report.Failures)
	}
	fmt.Printf("goal %q = %s\n", "report filed", report.Goals["report filed"])
}

func engineConfig() *openwf.EngineConfig {
	cfg := openwf.DefaultEngineConfig()
	cfg.StartDelay = 200 * time.Millisecond
	cfg.TaskWindow = 50 * time.Millisecond
	return &cfg
}
