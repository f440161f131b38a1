package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
)

// Report summarizes one workflow execution observed from the initiator.
type Report struct {
	// Completed is true when every goal label reached the initiator, and
	// with them every task finished.
	Completed bool
	// Goals holds the data attached to each goal label.
	Goals map[model.LabelID][]byte
	// TasksDone is how many tasks are known to have finished: every task
	// of the plan on completion, and otherwise those a lease refresh
	// reported finished, with their producers upstream.
	TasksDone int
	// Failures lists task failure messages, if any.
	Failures []string
	// Elapsed is the time from plan distribution to completion (or
	// timeout).
	Elapsed time.Duration
}

// Execute completes the routing plan of an allocated workflow, injects
// the triggering labels, and waits for the community to execute it: every
// commitment is met in a decentralized fashion, outputs flow directly
// between executors, and the goal labels flow back to the initiator. It
// completes when every goal has arrived: pruning keeps only tasks on a
// path back to a goal, and a run starts only once all of its inputs are
// in, so by then every task has finished. An executor reports only a
// failure, which ends the wait at once. The plan rode on the awards, whose
// routes return goals and failures to the plan's Initiator, so Execute
// runs only there, and sends only the triggers.
//
// triggers optionally attaches data to triggering labels (nil data is
// fine — labels are conditions first, data second). The context bounds
// the wait: on cancellation or deadline Execute returns ctx.Err()
// together with a partial report of the progress observed so far. However
// it ends, the return releases the plan's commitments (release): a plan is
// executed once. The paper's timing window ends at allocation, so Execute
// is measured separately.
func (m *Manager) Execute(ctx context.Context, plan *Plan, triggers map[model.LabelID][]byte) (*Report, error) {
	if plan.Initiator != m.net.Self() {
		return nil, fmt.Errorf("plan %q was initiated by %q: execute it there, not on %q", plan.WorkflowID, plan.Initiator, m.net.Self())
	}
	if len(plan.Allocations) != plan.Workflow.NumTasks() {
		return nil, fmt.Errorf("plan is not fully allocated: %d of %d tasks",
			len(plan.Allocations), plan.Workflow.NumTasks())
	}
	w := plan.Workflow

	outs := w.Out()
	ex := &execution{
		plan:     plan,
		outs:     outs,
		goals:    make(map[model.LabelID][]byte, len(outs)),
		done:     make(chan struct{}),
		triggers: triggers,
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

	if err := m.distribute(ctx, plan.WorkflowID, w, plan.Allocations, nil, triggers); err != nil {
		if ctx.Err() != nil {
			return m.executionReport(ex, plan, start, ctx.Err()), ctx.Err()
		}
		return nil, err
	}

	// Keep the executors' commitment leases alive while the workflow
	// runs; the refresher is also the failure detector behind plan
	// repair. Its timer starts the loop at the first tick, so an execution
	// that ends sooner starts no goroutine for it (release stops the
	// timer); the loop exits on its own when the execution finishes. The
	// tick cannot refresh in the timer's callback: clock.Sim runs that
	// inside Advance, and a refresh makes calls.
	if m.cfg.LeaseRefreshInterval > 0 {
		ex.refresher = m.net.Clock().AfterFunc(m.cfg.LeaseRefreshInterval, func() { go m.refreshLoop(ctx, ex) })
	}

	// Wait for completion (every goal delivered), a failure or
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
// late notifications and to a repair still in flight, stops its
// refresher, and tells each participant of the plan once that the
// workflow is over (a Cancel naming no task) — drop it now, not one lease
// later. One-way and best effort: the lease is the backstop. This host is
// told only if it is a participant: its goal labels live in the execution
// and end with it.
func (m *Manager) release(ex *execution) {
	wfID := ex.plan.WorkflowID
	var buf [8]proto.Addr
	hosts := buf[:0]
	m.mu.Lock()
	ex.finishLocked(false)
	delete(m.executions, wfID)
	for _, h := range ex.plan.Allocations {
		if !slices.Contains(hosts, h) {
			hosts = append(hosts, h)
		}
	}
	m.mu.Unlock()
	if ex.refresher != nil {
		ex.refresher.Stop()
	}
	slices.Sort(hosts)
	for _, h := range hosts {
		_ = m.net.Send(context.Background(), h, wfID, proto.Cancel{}) //openwf:allow-background the release must out-live a canceled Execute ctx or participants keep a finished workflow for a whole lease
	}
}

// distribute sends each executor the routing segments segs of its tasks in
// one plan request, acknowledged once, and then injects the triggering
// conditions: the initiator supplies each workflow source label to the
// executors that consume it. Execute runs it with no segment; a plan repair
// runs it again with the segments of the kept producers of re-homed tasks
// (planSegments): a running executor re-routes, and a finished run
// re-publishes its retained outputs to the new consumers.
// segs is the caller's to give away: it is reordered by executor.
func (m *Manager) distribute(ctx context.Context, wfID string, w *model.Workflow, alloc map[model.TaskID]proto.Addr, segs []proto.PlanSegment, triggers map[model.LabelID][]byte) error {
	err := byPeer(segs, func(s proto.PlanSegment) proto.Addr { return alloc[s.Task] }, func(to proto.Addr, run []proto.PlanSegment) error {
		reply, err := m.net.Call(ctx, to, wfID, proto.Plan{Segments: run}, m.cfg.CallTimeout)
		if err == nil {
			if _, ok := reply.(proto.Ack); !ok {
				err = fmt.Errorf("unexpected reply %T", reply)
			}
		}
		if err != nil {
			tasks := make([]model.TaskID, len(run))
			for i, seg := range run {
				tasks[i] = seg.Task
			}
			return fmt.Errorf("distributing plan segments for %q to %q: %w", tasks, to, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var buf [4]proto.Addr
	sent := buf[:0] // the hosts a label went to; reused across labels
	for l := range w.InSeq() {
		sent = sent[:0]
		for consumer := range w.ConsumersSeq(l) {
			host := alloc[consumer]
			if slices.Contains(sent, host) {
				continue
			}
			sent = append(sent, host)
			lt := proto.LabelTransfer{Label: l, Data: triggers[l], Producer: m.net.Self()}
			if err := m.net.Send(ctx, host, wfID, lt); err != nil {
				return fmt.Errorf("injecting trigger %q: %w", l, err)
			}
		}
	}
	return nil
}

// executionReport ends an execution's progress and reports it. It marks
// the execution finished under the lock, if it was not — on cancellation
// it is still live — so nothing writes its goals or failures after: no
// straggling goal label (OnLabelTransfer), no abort and no repair in
// flight (swapWorkflow). The report therefore takes both over as they are.
func (m *Manager) executionReport(ex *execution, plan *Plan, start time.Time, ctxErr error) *Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	ex.finishLocked(false)
	done := len(ex.finishedTasks)
	if ex.completed {
		done = plan.Workflow.NumTasks()
	}
	return &Report{
		Completed: ex.completed && ctxErr == nil,
		Goals:     ex.goals,
		TasksDone: done,
		Failures:  ex.failures,
		Elapsed:   m.net.Clock().Since(start),
	}
}

// planSegments derives the routing of every kept task of the plan that
// feeds a re-homed task of rehomed: each output goes to every consumer's
// executor, a goal label to this host (routes).
func (m *Manager) planSegments(plan *Plan, rehomed map[model.TaskID]proto.Addr) []proto.PlanSegment {
	w := plan.Workflow
	executor := func(t model.TaskID) proto.Addr { return plan.Allocations[t] }
	var segs []proto.PlanSegment
	for _, t := range w.Tasks() {
		if _, moved := rehomed[t.ID]; !moved && feedsAny(w, t.ID, rehomed) {
			segs = append(segs, proto.PlanSegment{Task: t.ID, Initiator: m.net.Self(), Routes: m.routes(nil, t.Outputs, w, executor)})
		}
	}
	return segs
}

// OnTaskDone records a task failure; the host dispatches inbound TaskDone
// messages here. A failed task means the goals can never be produced, so
// the execution is aborted at once, reporting the failure.
func (m *Manager) OnTaskDone(workflow string, td proto.TaskDone) {
	m.mu.Lock()
	ex, ok := m.executions[workflow]
	m.mu.Unlock()
	if ok && td.Err != "" {
		m.abortExecution(ex, fmt.Sprintf("%s: %s", td.Task, td.Err))
	}
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
	if slices.Contains(ex.outs, lt.Label) {
		if _, dup := ex.goals[lt.Label]; !dup {
			ex.goals[lt.Label] = lt.Data
		}
	}
	ex.maybeCompleteLocked()
}

// maybeCompleteLocked completes the execution once every goal of the
// plan's workflow has arrived; every task then counts as finished
// (Execute).
func (ex *execution) maybeCompleteLocked() {
	if len(ex.goals) == len(ex.outs) {
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
