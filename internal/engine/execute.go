package engine

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
)

// Report summarizes one workflow execution observed from the initiator.
type Report struct {
	// Completed is true when every task finished and every goal label
	// reached the initiator.
	Completed bool
	// Goals holds the data attached to each goal label.
	Goals map[model.LabelID][]byte
	// TasksDone is how many task-completion notifications arrived.
	TasksDone int
	// Failures lists task failure messages, if any.
	Failures []string
	// Elapsed is the time from plan distribution to completion (or
	// timeout).
	Elapsed time.Duration
}

// Execute distributes the routing plan for an allocated workflow, injects
// the triggering labels, and waits for the community to execute it: every
// commitment is met in a decentralized fashion, outputs flow directly
// between executors, and the goal labels (plus per-task completion
// notifications) flow back to the initiator.
//
// triggers optionally attaches data to triggering labels (nil data is
// fine — labels are conditions first, data second). The context bounds
// the wait: on cancellation or deadline Execute returns ctx.Err()
// together with a partial report of the progress observed so far. However
// it ends, the return releases the plan's commitments (release): a plan is
// executed once. The paper's timing window ends at allocation, so Execute
// is measured separately.
func (m *Manager) Execute(ctx context.Context, plan *Plan, triggers map[model.LabelID][]byte) (*Report, error) {
	if len(plan.Allocations) != plan.Workflow.NumTasks() {
		return nil, fmt.Errorf("plan is not fully allocated: %d of %d tasks",
			len(plan.Allocations), plan.Workflow.NumTasks())
	}
	w := plan.Workflow
	goalWant := len(w.Out())

	ex := &execution{
		plan:          plan,
		remaining:     make(map[model.TaskID]struct{}, w.NumTasks()),
		goals:         make(map[model.LabelID][]byte, goalWant),
		goalWant:      goalWant,
		done:          make(chan struct{}),
		finishedTasks: make(map[model.TaskID]struct{}, w.NumTasks()),
		triggers:      triggers,
	}
	for _, id := range w.TaskIDs() {
		ex.remaining[id] = struct{}{}
	}
	m.mu.Lock()
	if _, dup := m.executions[plan.WorkflowID]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("workflow %q is already executing", plan.WorkflowID)
	}
	m.executions[plan.WorkflowID] = ex
	m.mu.Unlock()
	defer m.release(ex)

	start := m.net.Clock().Now()

	if err := m.distribute(ctx, plan.WorkflowID, w, plan.Allocations, m.planSegments(plan), triggers); err != nil {
		if ctx.Err() != nil {
			return m.executionReport(ex, plan, start, ctx.Err()), ctx.Err()
		}
		return nil, err
	}

	// Keep the executors' commitment leases alive while the workflow
	// runs; the refresher is also the failure detector behind plan
	// repair. It exits on its own when the execution finishes.
	if m.cfg.LeaseRefreshInterval > 0 {
		go m.refreshLoop(ctx, ex)
	}

	// Wait for completion (all tasks done and all goals delivered) or
	// cancellation, whichever comes first.
	var ctxErr error
	select {
	case <-ex.done:
	case <-ctx.Done():
		ctxErr = ctx.Err()
	}
	return m.executionReport(ex, plan, start, ctxErr), ctxErr
}

// release ends an execution however it ended: it closes the execution to
// late notifications and to a repair still in flight, and tells each
// participant of the plan once that the workflow is over (a Cancel naming
// no task) — drop it now, not one lease later. One-way and best effort:
// the lease is the backstop. This host is told only if it is a
// participant: its goal labels live in the execution and end with it.
func (m *Manager) release(ex *execution) {
	wfID := ex.plan.WorkflowID
	m.mu.Lock()
	ex.finishLocked(false)
	delete(m.executions, wfID)
	hosts := slices.Collect(maps.Values(ex.plan.Allocations))
	m.mu.Unlock()
	slices.Sort(hosts)
	for _, h := range slices.Compact(hosts) {
		_ = m.net.Send(context.Background(), h, wfID, proto.Cancel{}) //openwf:allow-background the release must out-live a canceled Execute ctx or participants keep a finished workflow for a whole lease
	}
}

// distribute sends each executor the routing segments of its tasks in one
// plan request, acknowledged once, and then injects the triggering
// conditions: the initiator supplies each workflow source label to the
// executors that consume it. Execute runs it once; a plan repair runs it
// again over the repaired allocation, which is safe because segments are
// idempotent — a fresh executor arms its run, a surviving one updates its
// sinks, and a finished run re-publishes its retained outputs to the new
// consumers.
// segs is the caller's to give away: it is reordered by executor.
func (m *Manager) distribute(ctx context.Context, wfID string, w *model.Workflow, alloc map[model.TaskID]proto.Addr, segs []proto.PlanSegment, triggers map[model.LabelID][]byte) error {
	slices.SortStableFunc(segs, func(a, b proto.PlanSegment) int { return cmp.Compare(alloc[a.Task], alloc[b.Task]) })
	for len(segs) > 0 {
		to := alloc[segs[0].Task]
		n := 1
		for n < len(segs) && alloc[segs[n].Task] == to {
			n++
		}
		reply, err := m.net.Call(ctx, to, wfID, proto.Plan{Segments: segs[:n]}, m.cfg.CallTimeout)
		if err == nil {
			if _, ok := reply.(proto.Ack); !ok {
				err = fmt.Errorf("unexpected reply %T", reply)
			}
		}
		if err != nil {
			tasks := make([]model.TaskID, n)
			for i, seg := range segs[:n] {
				tasks[i] = seg.Task
			}
			return fmt.Errorf("distributing plan segments for %q to %q: %w", tasks, to, err)
		}
		segs = segs[n:]
	}
	for _, l := range w.In() {
		sent := make(map[proto.Addr]struct{})
		for _, consumer := range w.Consumers(l) {
			host := alloc[consumer]
			if _, dup := sent[host]; dup {
				continue
			}
			sent[host] = struct{}{}
			lt := proto.LabelTransfer{Label: l, Data: triggers[l], Producer: m.net.Self()}
			if err := m.net.Send(ctx, host, wfID, lt); err != nil {
				return fmt.Errorf("injecting trigger %q: %w", l, err)
			}
		}
	}
	return nil
}

// executionReport snapshots an execution's progress. The goals map is
// copied under the lock: on cancellation the execution is still live and
// a straggling goal label could otherwise mutate the map the caller is
// reading.
func (m *Manager) executionReport(ex *execution, plan *Plan, start time.Time, ctxErr error) *Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	goals := make(map[model.LabelID][]byte, len(ex.goals))
	for l, data := range ex.goals {
		goals[l] = data
	}
	return &Report{
		Completed: ex.completed && ctxErr == nil,
		Goals:     goals,
		TasksDone: plan.Workflow.NumTasks() - len(ex.remaining),
		Failures:  append([]string(nil), ex.failures...),
		Elapsed:   m.net.Clock().Since(start),
	}
}

// planSegments derives each task's routing information from the workflow
// structure and the allocation: inputs come from the producer's executor
// (or the initiator for triggering labels); outputs go to every consumer's
// executor, and goal labels also return to the initiator.
func (m *Manager) planSegments(plan *Plan) []proto.PlanSegment {
	w := plan.Workflow
	self := m.net.Self()
	goalSet := make(map[model.LabelID]struct{})
	for _, g := range w.Out() {
		goalSet[g] = struct{}{}
	}
	segs := make([]proto.PlanSegment, 0, w.NumTasks())
	for _, id := range w.TaskIDs() {
		t, _ := w.Task(id)
		seg := proto.PlanSegment{
			Task:         id,
			Initiator:    self,
			InputSources: make(map[model.LabelID]proto.Addr, len(t.Inputs)),
			OutputSinks:  make(map[model.LabelID][]proto.Addr, len(t.Outputs)),
		}
		for _, in := range t.Inputs {
			if producer, ok := w.Producer(in); ok {
				seg.InputSources[in] = plan.Allocations[producer]
			} else {
				seg.InputSources[in] = self // triggering label
			}
		}
		for _, out := range t.Outputs {
			var sinks []proto.Addr
			seen := make(map[proto.Addr]struct{})
			for _, consumer := range w.Consumers(out) {
				host := plan.Allocations[consumer]
				if _, dup := seen[host]; !dup {
					seen[host] = struct{}{}
					sinks = append(sinks, host)
				}
			}
			if _, isGoal := goalSet[out]; isGoal {
				if _, dup := seen[self]; !dup {
					sinks = append(sinks, self)
				}
			}
			sort.Slice(sinks, func(i, j int) bool { return sinks[i] < sinks[j] })
			seg.OutputSinks[out] = sinks
		}
		segs = append(segs, seg)
	}
	return segs
}

// OnTaskDone records a task-completion notification; the host dispatches
// inbound TaskDone messages here.
func (m *Manager) OnTaskDone(workflow string, td proto.TaskDone) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ex, ok := m.executions[workflow]
	if !ok || ex.finished {
		return
	}
	if td.Err != "" {
		ex.failures = append(ex.failures, fmt.Sprintf("%s: %s", td.Task, td.Err))
		// A failed task means the goals can never be produced; finish
		// the wait immediately, reporting the failure.
		ex.finishLocked(false)
		return
	}
	if _, known := ex.remaining[td.Task]; known {
		ex.finishedTasks[td.Task] = struct{}{}
	}
	delete(ex.remaining, td.Task)
	ex.maybeCompleteLocked()
}

// OnLabelTransfer records goal labels arriving at the initiator; the host
// dispatches inbound LabelTransfer messages here (in addition to the
// execution manager).
func (m *Manager) OnLabelTransfer(workflow string, lt proto.LabelTransfer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ex, ok := m.executions[workflow]
	if !ok || ex.finished {
		return
	}
	for _, g := range ex.plan.Workflow.Out() {
		if g == lt.Label {
			if _, dup := ex.goals[lt.Label]; !dup {
				ex.goals[lt.Label] = lt.Data
			}
			break
		}
	}
	ex.maybeCompleteLocked()
}

func (ex *execution) maybeCompleteLocked() {
	if len(ex.remaining) == 0 && len(ex.goals) == ex.goalWant {
		ex.finishLocked(true)
	}
}

func (ex *execution) finishLocked(ok bool) {
	if ex.finished {
		return
	}
	ex.finished = true
	ex.completed = ok
	close(ex.done)
}
