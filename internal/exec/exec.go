// Package exec implements the Execution Manager of the execution subsystem
// (§4.2): it monitors the input-message and time conditions required for
// each scheduled service invocation, triggers service execution once the
// conditions are met, and publishes the outputs to the executors of
// dependent tasks — the fully decentralized, distributed execution phase
// of §3.2. To meet a commitment the participant (1) acquires the required
// inputs from the executors of preceding tasks, (2) travels to the
// required location, and (3) executes the service at the required time.
package exec

import (
	"context"
	"fmt"
	"sync"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/space"
)

// locationEps is how close (meters) a host must be to a commitment's
// location to execute it.
const locationEps = 0.5

// SendFunc transmits an envelope; the host injects its endpoint.
type SendFunc func(ctx context.Context, to proto.Addr, env proto.Envelope) error

// Manager drives the execution of this host's commitments. It is safe for
// concurrent use.
type Manager struct {
	self     proto.Addr
	clk      clock.Clock
	services *service.Manager
	sched    *schedule.Manager
	send     SendFunc
	// ctx is the manager's root context, canceled by Close: in-flight
	// service invocations and output publishing stop promptly when the
	// host shuts down.
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	runs map[runKey]*run
	// labels buffers label data per workflow, including labels arriving
	// before the consuming commitment is registered.
	labels map[string]map[model.LabelID][]byte
}

type runKey struct {
	workflow string
	task     model.TaskID
}

type run struct {
	commitment schedule.Commitment
	seg        proto.PlanSegment
	hasSeg     bool
	traveling  bool
	started    bool
	// finished marks a successful invocation; outputs retains its results
	// so a repaired plan (new consumers for the same task) can re-publish
	// them without re-executing the service.
	finished bool
	outputs  service.Outputs
	timers   []clock.Timer
}

// NewManager returns an execution manager for one host.
func NewManager(self proto.Addr, clk clock.Clock, services *service.Manager, sched *schedule.Manager, send SendFunc) *Manager {
	if clk == nil {
		clk = clock.New()
	}
	m := &Manager{
		self:     self,
		clk:      clk,
		services: services,
		sched:    sched,
		send:     send,
		runs:     make(map[runKey]*run),
		labels:   make(map[string]map[model.LabelID][]byte),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background()) //openwf:allow-background lifecycle root spanning every execution on this host, canceled by Close
	return m
}

// Close cancels the manager's root context, interrupting in-flight
// service invocations and stopping pending run timers.
func (m *Manager) Close() {
	m.cancel()
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, r := range m.runs {
		m.forget(k, r)
	}
}

// Register records an awarded commitment. Execution additionally needs the
// routing plan (SetPlan); conditions are monitored from then on.
func (m *Manager) Register(workflow string, c schedule.Commitment) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := runKey{workflow, c.Task}
	if _, dup := m.runs[k]; dup {
		return
	}
	m.runs[k] = &run{commitment: c}
}

// SetPlan attaches the routing information for a commitment and arms the
// travel and start timers. A segment whose task was never registered is
// dropped, unless the calendar already holds its commitment: then the run
// is made from that, so plan and award may arrive in either order.
func (m *Manager) SetPlan(workflow string, seg proto.PlanSegment) {
	m.mu.Lock()
	k := runKey{workflow, seg.Task}
	r, ok := m.runs[k]
	if !ok {
		// Award not seen yet (messages may reorder across links);
		// synthesize the run from the schedule manager's commitment
		// when it exists, else drop — the engine re-sends plans on
		// replanning.
		if c, exists := m.sched.Get(workflow, seg.Task); exists {
			r = &run{commitment: c}
			m.runs[k] = r
		} else {
			m.mu.Unlock()
			return
		}
	}
	r.seg = seg
	r.hasSeg = true
	if r.finished {
		// The task already ran; a refreshed segment (plan repair after a
		// provider died) may route its outputs to new consumers.
		// Re-publish to the new sinks — receivers deduplicate labels, so
		// surviving consumers see nothing new.
		c, outputs := r.commitment, r.outputs
		m.mu.Unlock()
		go func() {
			if err := m.publish(workflow, c, seg, outputs); err == nil {
				m.notifyDone(workflow, seg, nil)
			}
		}()
		return
	}
	m.armTimersLocked(workflow, r)
	m.mu.Unlock()
	m.tryStart(workflow, seg.Task)
}

// armTimersLocked schedules travel and readiness checks for a run.
func (m *Manager) armTimersLocked(workflow string, r *run) {
	now := m.clk.Now()
	c := r.commitment
	if c.HasLocation && c.TravelStart.After(now) {
		t := m.clk.AfterFunc(c.TravelStart.Sub(now), func() {
			m.beginTravel(workflow, c.Task)
		})
		r.timers = append(r.timers, t)
	} else if c.HasLocation {
		m.beginTravelLocked(r)
	}
	if c.Start.After(now) {
		task := c.Task
		t := m.clk.AfterFunc(c.Start.Sub(now), func() {
			m.tryStart(workflow, task)
		})
		r.timers = append(r.timers, t)
	}
}

// beginTravel starts the journey to a commitment's location.
func (m *Manager) beginTravel(workflow string, task model.TaskID) {
	m.mu.Lock()
	r, ok := m.runs[runKey{workflow, task}]
	if ok {
		m.beginTravelLocked(r)
	}
	m.mu.Unlock()
	m.tryStart(workflow, task)
}

func (m *Manager) beginTravelLocked(r *run) {
	if r.traveling || r.started {
		return
	}
	r.traveling = true
	m.sched.Mobility().Travel(m.clk.Now(), r.commitment.Location)
}

// OnLabel receives a label transfer (an inter-service message). The data
// is buffered per workflow and any run waiting on it is re-checked.
func (m *Manager) OnLabel(workflow string, lt proto.LabelTransfer) {
	m.mu.Lock()
	wf, ok := m.labels[workflow]
	if !ok {
		wf = make(map[model.LabelID][]byte)
		m.labels[workflow] = wf
	}
	if _, dup := wf[lt.Label]; !dup {
		wf[lt.Label] = lt.Data
	}
	var waiting []model.TaskID
	for k, r := range m.runs {
		if k.workflow != workflow || r.started {
			continue
		}
		for _, in := range r.commitment.Meta.Inputs {
			if in == lt.Label {
				waiting = append(waiting, k.task)
				break
			}
		}
	}
	m.mu.Unlock()
	for _, task := range waiting {
		m.tryStart(workflow, task)
	}
}

// forget stops a run's timers and drops it. Callers hold m.mu.
func (m *Manager) forget(k runKey, r *run) {
	for _, t := range r.timers {
		t.Stop()
	}
	delete(m.runs, k)
}

// Cancel drops the run of one task whatever its state (an invocation in
// flight finds it gone and publishes nothing) or, when task is empty, every
// run of the workflow. The workflow's buffered labels go with its last run.
func (m *Manager) Cancel(workflow string, task model.TaskID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	left := false
	for k, r := range m.runs {
		switch {
		case k.workflow != workflow:
		case task == "" || k.task == task:
			m.forget(k, r)
		default:
			left = true
		}
	}
	if !left {
		delete(m.labels, workflow)
	}
}

// ClearWorkflow drops all state for a workflow. No product caller; kept
// for the frozen benchmark, goes with the [benchmark] re-baseline.
func (m *Manager) ClearWorkflow(workflow string) { m.Cancel(workflow, "") }

// Reset wipes every run and buffered label (crash simulation); the manager
// stays usable and the restarted host re-registers from scratch.
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, r := range m.runs {
		m.forget(k, r)
	}
	clear(m.labels)
}

// Residue returns how many runs and how many workflows' buffered labels
// the manager holds: zero once every workflow this host served has ended.
func (m *Manager) Residue() (runs, labels int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.runs), len(m.labels)
}

// Pending returns how many registered runs have not started yet.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, r := range m.runs {
		if !r.started {
			n++
		}
	}
	return n
}

// tryStart checks a run's conditions — plan present, all inputs received,
// window open, location reached — and launches the service invocation in
// its own goroutine when they all hold.
func (m *Manager) tryStart(workflow string, task model.TaskID) {
	m.mu.Lock()
	k := runKey{workflow, task}
	r, ok := m.runs[k]
	if !ok || r.started || !r.hasSeg {
		m.mu.Unlock()
		return
	}
	now := m.clk.Now()
	c := r.commitment
	if now.Before(c.Start) {
		m.mu.Unlock()
		return
	}
	wf := m.labels[workflow]
	inputs := make(service.Inputs, len(c.Meta.Inputs))
	for _, in := range c.Meta.Inputs {
		data, have := wf[in]
		if !have {
			m.mu.Unlock()
			return
		}
		inputs[in] = data
	}
	if c.HasLocation {
		pos := m.sched.Mobility().Position(now)
		if !space.Near(pos, c.Location, locationEps) {
			// Still under way: re-check on arrival.
			eta := space.TravelTime(pos, c.Location, m.sched.Mobility().Speed())
			if eta > 0 && eta < 1<<62 {
				t := m.clk.AfterFunc(eta, func() { m.tryStart(workflow, task) })
				r.timers = append(r.timers, t)
			}
			m.mu.Unlock()
			return
		}
	}
	r.started = true
	seg := r.seg
	m.mu.Unlock()

	go m.invoke(workflow, c, seg, inputs)
}

// invoke performs the service and publishes its results.
func (m *Manager) invoke(workflow string, c schedule.Commitment, seg proto.PlanSegment, inputs service.Inputs) {
	inv := service.Invocation{
		Ctx:      m.ctx,
		Task:     c.Task,
		Workflow: workflow,
		Inputs:   inputs,
		Now:      m.clk.Now(),
	}
	outputs, err := m.services.Invoke(inv, c.Meta.Outputs)
	if err != nil {
		if m.ctx.Err() != nil {
			return // host shutting down: nobody to notify
		}
		m.notifyDone(workflow, seg, fmt.Errorf("executing %q: %w", c.Task, err))
		return
	}
	// Retain the results: a plan repair may later route them to new
	// consumers (SetPlan re-publishes for finished runs). A run dropped
	// mid-invocation owes nobody its outputs.
	m.mu.Lock()
	r, ok := m.runs[runKey{workflow, c.Task}]
	if ok {
		r.finished = true
		r.outputs = outputs
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	if err := m.publish(workflow, c, seg, outputs); err != nil {
		m.notifyDone(workflow, seg, err)
		return
	}
	m.notifyDone(workflow, seg, nil)
}

// publish communicates the outputs to every participant that requires
// them (§3.2: the participant's final responsibility).
func (m *Manager) publish(workflow string, c schedule.Commitment, seg proto.PlanSegment, outputs service.Outputs) error {
	for _, out := range c.Meta.Outputs {
		for _, sink := range seg.OutputSinks[out] {
			env := proto.Envelope{
				Workflow: workflow,
				Body: proto.LabelTransfer{
					Label:    out,
					Data:     outputs[out],
					Producer: m.self,
				},
			}
			if sendErr := m.send(m.ctx, sink, env); sendErr != nil {
				return fmt.Errorf("publishing %q: %w", out, sendErr)
			}
		}
	}
	return nil
}

func (m *Manager) notifyDone(workflow string, seg proto.PlanSegment, err error) {
	if seg.Initiator == "" {
		return
	}
	body := proto.TaskDone{Task: seg.Task}
	if err != nil {
		body.Err = err.Error()
	}
	_ = m.send(m.ctx, seg.Initiator, proto.Envelope{Workflow: workflow, Body: body})
}
