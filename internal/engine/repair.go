package engine

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"openwf/internal/core"
	"openwf/internal/model"
	"openwf/internal/proto"
)

// Plan repair: commitments are leases, and the initiator's lease
// refresher doubles as the failure detector. When an executor dies (or a
// partition makes it unreachable, or it reports a lease it no longer
// holds), the affected tasks are re-auctioned among the survivors; tasks
// nobody can take trigger a reconstruction against the surviving
// community's knowledge — not a full replan — and the diff is applied to
// the running execution: dropped tasks are canceled, new ones auctioned
// with their routes, kept producers of re-homed tasks re-routed, triggers
// re-injected. Repair has no steps of its own: it is the session's
// failure feedback (settle), with its budget, constraints and events, run
// over the survivors from the current workflow, and the session's
// distribute.
// Executors retain the outputs of finished runs, so a repaired route
// re-publishes data instead of re-executing services wherever possible.

// refreshLoop keeps the commitment leases behind an execution alive,
// ticking every LeaseRefreshInterval until the execution finishes or the
// initiating context is canceled.
func (m *Manager) refreshLoop(ctx context.Context, ex *execution) {
	clk := m.net.Clock()
	for {
		select {
		case <-ex.done:
			return
		case <-ctx.Done():
			return
		case <-clk.After(m.cfg.LeaseRefreshInterval):
		}
		m.refreshLeases(ctx, ex)
	}
}

// refreshLeases sends one LeaseRefresh to every executor of the plan,
// naming all of its tasks: finished runs keep what a repair re-publishes,
// and the ack says which have finished. Each task reported finished is
// marked so, with every producer upstream of it, before any repair is
// decided. An executor that cannot be reached is presumed dead; a lease
// the executor reports missing was swept (expired) on its side and the
// slot is gone. Either finding triggers plan repair; a repair that fails
// aborts the execution, and Execute's return releases the survivors.
func (m *Manager) refreshLeases(ctx context.Context, ex *execution) {
	m.mu.Lock()
	if ex.finished {
		m.mu.Unlock()
		return
	}
	wfID := ex.plan.WorkflowID
	alloc := maps.Clone(ex.plan.Allocations)
	m.mu.Unlock()

	ids := make([]model.TaskID, 0, len(alloc))
	for t := range alloc {
		ids = append(ids, t)
	}
	slices.Sort(ids)
	var dead []proto.Addr
	var lost, finished []model.TaskID
	err := byPeer(ids, func(t model.TaskID) proto.Addr { return alloc[t] }, func(h proto.Addr, tasks []model.TaskID) error {
		reply, err := m.net.Call(ctx, h, wfID, proto.LeaseRefresh{Tasks: tasks}, m.cfg.CallTimeout)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			dead = append(dead, h)
			return nil
		}
		ack, ok := reply.(proto.LeaseRefreshAck)
		if !ok {
			dead = append(dead, h)
			return nil
		}
		lost = append(lost, ack.Missing...)
		finished = append(finished, ack.Finished...)
		return nil
	})
	if err != nil {
		return
	}
	m.mu.Lock()
	ex.markFinishedLocked(finished)
	m.mu.Unlock()
	if len(dead) == 0 && len(lost) == 0 {
		return
	}
	if err := m.repairPlan(ctx, ex, dead, lost); err != nil {
		m.abortExecution(ex, fmt.Sprintf("plan repair after losing hosts %v, leases %v: %v", dead, lost, err))
	}
}

// markFinishedLocked records tasks a refresh reported finished, and every
// producer upstream of them: a run starts only once all of its inputs are
// in. A task already known finished, or gone from the workflow, is skipped
// with its upstream.
func (ex *execution) markFinishedLocked(tasks []model.TaskID) {
	w := ex.plan.Workflow
	for len(tasks) > 0 {
		t := tasks[len(tasks)-1]
		tasks = tasks[:len(tasks)-1]
		task, in := w.Task(t)
		if _, known := ex.finishedTasks[t]; known || !in {
			continue
		}
		ex.finishedTasks[t] = struct{}{}
		for _, in := range task.Inputs {
			if p, ok := w.Producer(in); ok {
				tasks = append(tasks, p)
			}
		}
	}
}

// repairPlan re-homes the tasks stranded by dead executors and lost
// leases. It runs on the refresher goroutine, so repairs never overlap;
// everything that mutates the plan or the execution happens under m.mu,
// and all network traffic happens outside it.
func (m *Manager) repairPlan(ctx context.Context, ex *execution, dead []proto.Addr, lost []model.TaskID) error {
	deadSet := make(map[proto.Addr]struct{}, len(dead))
	for _, h := range dead {
		deadSet[h] = struct{}{}
	}

	m.mu.Lock()
	if ex.finished {
		m.mu.Unlock()
		return nil
	}
	plan := ex.plan
	wfID := plan.WorkflowID
	w := plan.Workflow
	// Dead executors are gone, and a lost lease means the executor already
	// returned the slot to its pool.
	if !ex.rehomeLocked(deadSet, lost) {
		m.mu.Unlock()
		return nil
	}
	survivors := survivorsOf(m.net.Members(), deadSet)
	placed := maps.Clone(plan.Allocations)
	m.mu.Unlock()

	// Re-auction the affected tasks among the survivors, routed like any
	// other sweep, with fresh execution windows starting now and the
	// session's window retries: concurrent executions repairing after the
	// same fault all re-auction at the same instant, and the retry bands
	// keep them from colliding on the survivors' schedules round after
	// round. Each award carries its task's routes, to kept and re-homed
	// consumers alike. Tasks nobody among the survivors can take are
	// excluded, and the workflow is reconstructed from the surviving
	// community's knowledge (a dead provider's unique fragments are simply
	// not offered) — a repair, not a full replan: finished work and live
	// allocations are kept wherever the new workflow still uses them, and
	// what it dropped is cancelled. The wins are merged into the plan only
	// once the whole repair holds together.
	//
	// Repair starts from doubt: a member just died under a running
	// workflow, and what the survivors said before that says nothing about
	// what they can take over now. Everyone is solicited until a
	// reconstruction has asked them again (see internal/discovery).
	m.idx.Doubt(m.idx.Mark())
	reconstruct := func(ctx context.Context, exclude []model.TaskID) (*model.Workflow, map[model.TaskID]proto.Addr, error) {
		res, err := m.build(ctx, wfID, plan.Spec, survivors, exclude)
		if err != nil {
			return nil, nil, fmt.Errorf("reconstructing without %v: %w", exclude, err)
		}
		kept, dropped := m.swapWorkflow(ex, res, deadSet)
		m.cancelAwards(wfID, dropped)
		return res.Workflow, kept, nil
	}
	_, won, wonMetas, _, err := m.settle(ctx, wfID, w, placed, survivors, 0, reconstruct)
	if err != nil {
		return err
	}

	// Commit the repaired allocation and snapshot what must be re-sent.
	m.mu.Lock()
	if ex.finished {
		m.mu.Unlock()
		m.cancelAwards(wfID, won)
		return nil
	}
	maps.Copy(plan.Allocations, won)
	maps.Copy(plan.Metas, wonMetas)
	segs := m.planSegments(plan, won)
	alloc := maps.Clone(plan.Allocations)
	wNow := plan.Workflow
	triggers := ex.triggers
	// A reconstruction may have shrunk the workflow to already-finished
	// work; nothing is left to distribute then.
	ex.maybeCompleteLocked()
	finished := ex.finished
	m.mu.Unlock()

	if !finished {
		if err := m.distribute(ctx, wfID, wNow, alloc, segs, triggers); err != nil {
			return err
		}
	}
	slices.Sort(dead)
	m.repairs.Add(1)
	if f := m.cfg.Observer.Repaired; f != nil {
		f(wfID, dead, slices.Sorted(maps.Keys(won)))
	}
	return nil
}

// swapWorkflow applies a reconstructed workflow to a running execution:
// state is re-pointed at the new workflow, and it returns the allocation
// it keeps and the one the new workflow dropped, for the caller to cancel
// outside the lock.
func (m *Manager) swapWorkflow(ex *execution, res *core.Result, deadSet map[proto.Addr]struct{}) (kept, dropped map[model.TaskID]proto.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	plan := ex.plan
	newW := res.Workflow
	dropped = make(map[model.TaskID]proto.Addr)
	// Drop what the new workflow no longer needs, releasing its
	// commitments — finished or not: a finished executor still holds its
	// run, and leaves the plan here, so the final release would miss it —
	// except on dead hosts, which hold nothing at all.
	for _, t := range plan.Workflow.TaskIDs() {
		if _, in := newW.Task(t); in {
			continue
		}
		if host, ok := plan.Allocations[t]; ok {
			if _, gone := deadSet[host]; !gone {
				dropped[t] = host
			}
		}
		delete(plan.Allocations, t)
		delete(plan.Metas, t)
		delete(ex.finishedTasks, t)
	}
	plan.Workflow = newW
	plan.Construction = *res
	// The new workflow's own tasks, and the dead producers feeding them in
	// its topology, are auctioned too.
	ex.rehomeLocked(deadSet, nil)
	// Goals follow the new workflow (the spec is unchanged, so in
	// practice the goal set is too; pruning keeps the count honest).
	ex.outs = newW.Out()
	for l := range ex.goals {
		if !slices.Contains(ex.outs, l) {
			delete(ex.goals, l)
		}
	}
	return maps.Clone(plan.Allocations), dropped
}

// abortExecution fails an execution cleanly: it records why and wakes the
// waiting Execute, whose return releases every participant.
func (m *Manager) abortExecution(ex *execution, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !ex.finished {
		ex.failures = append(ex.failures, reason)
		ex.finishLocked(false)
	}
}

// rehomeLocked takes out of the plan — Allocations, Metas and
// finishedTasks — every task of its workflow that needs a new executor, and
// reports whether there was any: each unfinished task without a live one
// (unallocated, on a dead host, or in lost, its lease gone) and, to a fixed
// point, each finished task on a dead host that feeds one of them: its
// retained outputs died with the host (surviving consumers hold their
// copies, but a fresh executor holds nothing), so it must run again. It is
// repair's one re-homing rule, applied to the plan and again to each
// workflow a reconstruction puts in its place (swapWorkflow).
func (ex *execution) rehomeLocked(dead map[proto.Addr]struct{}, lost []model.TaskID) bool {
	plan, w := ex.plan, ex.plan.Workflow
	set := make(map[model.TaskID]struct{})
	for t := range w.TopoSeq() {
		h, ok := plan.Allocations[t]
		_, gone := dead[h]
		if _, fin := ex.finishedTasks[t]; !fin && (!ok || gone || slices.Contains(lost, t)) {
			set[t] = struct{}{}
		}
	}
	for changed := true; changed; {
		changed = false
		for t := range ex.finishedTasks {
			if _, in := set[t]; in {
				continue
			}
			if _, gone := dead[plan.Allocations[t]]; gone && feedsAny(w, t, set) {
				set[t] = struct{}{}
				changed = true
			}
		}
	}
	for t := range set {
		delete(plan.Allocations, t)
		delete(plan.Metas, t)
		delete(ex.finishedTasks, t)
	}
	return len(set) > 0
}

// feedsAny reports whether any output of task t is consumed by a task in
// set.
func feedsAny[V any](w *model.Workflow, t model.TaskID, set map[model.TaskID]V) bool {
	task, ok := w.Task(t)
	if !ok {
		return false
	}
	for _, out := range task.Outputs {
		for c := range w.ConsumersSeq(out) {
			if _, hit := set[c]; hit {
				return true
			}
		}
	}
	return false
}

// survivorsOf filters the dead out of a member list.
func survivorsOf(members []proto.Addr, dead map[proto.Addr]struct{}) []proto.Addr {
	out := make([]proto.Addr, 0, len(members))
	for _, m := range members {
		if _, gone := dead[m]; !gone {
			out = append(out, m)
		}
	}
	return out
}
