package engine

import (
	"context"
	"fmt"
	"maps"
	"sort"

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
// the running execution: dropped tasks are canceled, new ones auctioned,
// routing segments re-distributed, triggers re-injected. Repair has no
// steps of its own: it is the session's construct, allocate and
// distribute, run over the survivors.
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

// refreshLeases sends one LeaseRefresh per executor still owing tasks.
// An executor that cannot be reached is presumed dead; a lease the
// executor reports missing was swept (expired) on its side and the slot
// is gone. Either finding triggers plan repair; a repair that fails
// aborts the execution, and Execute's return releases the survivors.
func (m *Manager) refreshLeases(ctx context.Context, ex *execution) {
	m.mu.Lock()
	if ex.finished {
		m.mu.Unlock()
		return
	}
	wfID := ex.plan.WorkflowID
	byHost := make(map[proto.Addr][]model.TaskID)
	for t := range ex.remaining {
		if host, ok := ex.plan.Allocations[t]; ok {
			byHost[host] = append(byHost[host], t)
		}
	}
	m.mu.Unlock()

	hosts := make([]proto.Addr, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })

	var dead []proto.Addr
	var lost []model.TaskID
	for _, h := range hosts {
		tasks := byHost[h]
		sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
		reply, err := m.net.Call(ctx, h, wfID, proto.LeaseRefresh{Tasks: tasks}, m.cfg.CallTimeout)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			dead = append(dead, h)
			continue
		}
		ack, ok := reply.(proto.LeaseRefreshAck)
		if !ok {
			dead = append(dead, h)
			continue
		}
		lost = append(lost, ack.Missing...)
	}
	if len(dead) == 0 && len(lost) == 0 {
		return
	}
	if err := m.repairPlan(ctx, ex, dead, lost); err != nil {
		m.abortExecution(ex, fmt.Sprintf("plan repair after losing hosts %v, leases %v: %v", dead, lost, err))
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

	affected := make(map[model.TaskID]struct{})
	for _, t := range lost {
		if _, unfinished := ex.remaining[t]; unfinished {
			affected[t] = struct{}{}
		}
	}
	for t := range ex.remaining {
		if _, gone := deadSet[plan.Allocations[t]]; gone {
			affected[t] = struct{}{}
		}
	}
	rerunDeadProducers(ex, w, deadSet, affected)
	if len(affected) == 0 {
		m.mu.Unlock()
		return nil
	}
	// Invalidate the affected allocations: dead executors are gone, and a
	// lost lease means the executor already returned the slot to its pool.
	for t := range affected {
		delete(plan.Allocations, t)
		delete(ex.finishedTasks, t)
		ex.remaining[t] = struct{}{}
	}
	survivors := survivorsOf(m.net.Members(), deadSet)
	m.mu.Unlock()

	// Re-auction the affected tasks among the survivors, routed like any
	// other sweep, with fresh execution windows starting now and
	// allocation's window retries: concurrent executions repairing after
	// the same fault all re-auction at the same instant, and the retry
	// bands keep them from colliding on the survivors' schedules round
	// after round. The wins are merged into the plan only once the whole
	// repair holds together.
	//
	// Repair starts from doubt: a member just died under a running
	// workflow, and what the survivors said before that says nothing about
	// what they can take over now. Everyone is solicited until a
	// reconstruction has asked them again (see internal/discovery).
	m.idx.Doubt(m.idx.Mark())
	won, wonMetas, failed, err := m.allocate(ctx, wfID, w, topoFilter(w, affected), survivors, 0)
	if err != nil {
		return err
	}
	if len(failed) > 0 {
		// Nobody among the survivors can take some of the tasks:
		// reconstruct from the surviving community's knowledge (a dead
		// provider's unique fragments are simply not offered) with the
		// unplaceable tasks excluded — a repair, not a full replan:
		// finished work and live allocations are kept wherever the new
		// workflow still uses them.
		exclude := append(append([]model.TaskID(nil), m.cfg.Constraints.ExcludeTasks...), failed...)
		res, err := m.construct(ctx, wfID, plan.Spec, survivors, exclude)
		if err != nil {
			m.cancelAwards(wfID, won)
			return fmt.Errorf("reconstructing around unallocatable tasks %v: %w", failed, err)
		}
		need, dropped := m.swapWorkflow(ex, res, deadSet, won, wonMetas)
		m.cancelAwards(wfID, dropped)
		if len(need) > 0 {
			more, moreMetas, failed, err := m.allocate(ctx, wfID, res.Workflow, topoFilter(res.Workflow, need), survivors, 0)
			maps.Copy(won, more)
			maps.Copy(wonMetas, moreMetas)
			if err == nil && len(failed) > 0 {
				err = fmt.Errorf("%w: tasks %v unallocatable on the surviving community", ErrAllocationFailed, failed)
			}
			if err != nil {
				m.cancelAwards(wfID, won)
				return err
			}
		}
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
	ex.repairs++
	reallocated := make([]model.TaskID, 0, len(won))
	for t := range won {
		reallocated = append(reallocated, t)
	}
	sort.Slice(reallocated, func(i, j int) bool { return reallocated[i] < reallocated[j] })
	segs := m.planSegments(plan)
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
	deadSorted := append([]proto.Addr(nil), dead...)
	sort.Slice(deadSorted, func(i, j int) bool { return deadSorted[i] < deadSorted[j] })
	m.cfg.Observer.repaired(wfID, deadSorted, reallocated)
	return nil
}

// swapWorkflow applies a reconstructed workflow to a running execution:
// state is re-pointed at the new workflow, and it returns the tasks still
// needing an executor and the awards the new workflow dropped, for the
// caller to cancel outside the lock.
func (m *Manager) swapWorkflow(ex *execution, res *core.Result, deadSet map[proto.Addr]struct{}, won map[model.TaskID]proto.Addr, wonMetas map[model.TaskID]proto.TaskMeta) (need map[model.TaskID]struct{}, dropped map[model.TaskID]proto.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	plan := ex.plan
	newW := res.Workflow
	inNew := make(map[model.TaskID]struct{}, newW.NumTasks())
	for _, t := range newW.TaskIDs() {
		inNew[t] = struct{}{}
	}
	dropped = make(map[model.TaskID]proto.Addr)
	// Drop what the new workflow no longer needs, releasing its
	// commitments — finished or not: a finished executor still holds its
	// run, and leaves the plan here, so the final release would miss it —
	// except on dead hosts, which hold nothing at all.
	for _, t := range plan.Workflow.TaskIDs() {
		if _, kept := inNew[t]; kept {
			continue
		}
		if host, ok := won[t]; ok {
			dropped[t] = host
			delete(won, t)
			delete(wonMetas, t)
		} else if host, ok := plan.Allocations[t]; ok {
			if _, gone := deadSet[host]; !gone {
				dropped[t] = host
			}
		}
		delete(plan.Allocations, t)
		delete(plan.Metas, t)
		delete(ex.remaining, t)
		delete(ex.finishedTasks, t)
	}
	plan.Workflow = newW
	plan.Construction = *res
	// New-workflow tasks without a live executor need an auction;
	// anything unfinished re-enters remaining.
	need = make(map[model.TaskID]struct{})
	for _, t := range newW.TaskIDs() {
		_, allocated := plan.Allocations[t]
		_, rewon := won[t]
		if !allocated && !rewon {
			need[t] = struct{}{}
			ex.remaining[t] = struct{}{}
		} else if _, fin := ex.finishedTasks[t]; !fin {
			ex.remaining[t] = struct{}{}
		}
	}
	// The dead-producer closure again, against the new topology.
	moved := make(map[model.TaskID]struct{}, len(won)+len(need))
	for t := range won {
		moved[t] = struct{}{}
	}
	for t := range need {
		moved[t] = struct{}{}
	}
	for _, t := range rerunDeadProducers(ex, newW, deadSet, moved) {
		delete(ex.finishedTasks, t)
		delete(plan.Allocations, t)
		delete(plan.Metas, t)
		ex.remaining[t] = struct{}{}
		need[t] = struct{}{}
	}
	// Goals follow the new workflow (the spec is unchanged, so in
	// practice the goal set is too; pruning keeps the count honest).
	goalSet := make(map[model.LabelID]struct{}, len(newW.Out()))
	for _, g := range newW.Out() {
		goalSet[g] = struct{}{}
	}
	for l := range ex.goals {
		if _, ok := goalSet[l]; !ok {
			delete(ex.goals, l)
		}
	}
	ex.goalWant = len(newW.Out())
	return need, dropped
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

// rerunDeadProducers extends set, to a fixed point, with every finished
// task of ex on a dead executor that feeds a task of set in w: its
// retained outputs died with the host (surviving consumers hold their
// copies, but a fresh executor holds nothing), so it must run again. It
// returns the tasks it added.
func rerunDeadProducers(ex *execution, w *model.Workflow, dead map[proto.Addr]struct{}, set map[model.TaskID]struct{}) (added []model.TaskID) {
	for changed := true; changed; {
		changed = false
		for t := range ex.finishedTasks {
			if _, in := set[t]; in {
				continue
			}
			if _, gone := dead[ex.plan.Allocations[t]]; gone && feedsAny(w, t, set) {
				set[t] = struct{}{}
				added = append(added, t)
				changed = true
			}
		}
	}
	return added
}

// feedsAny reports whether any output of task t is consumed by a task in
// set.
func feedsAny(w *model.Workflow, t model.TaskID, set map[model.TaskID]struct{}) bool {
	task, ok := w.Task(t)
	if !ok {
		return false
	}
	for _, out := range task.Outputs {
		for _, c := range w.Consumers(out) {
			if _, hit := set[c]; hit {
				return true
			}
		}
	}
	return false
}

// topoFilter returns the members of set in the workflow's topological
// order (auction windows are staggered in dependency order).
func topoFilter(w *model.Workflow, set map[model.TaskID]struct{}) []model.TaskID {
	out := make([]model.TaskID, 0, len(set))
	for _, id := range w.TopoOrder() {
		if _, hit := set[id]; hit {
			out = append(out, id)
		}
	}
	return out
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
