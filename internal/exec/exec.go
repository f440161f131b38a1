// Package exec implements the Execution Manager of the execution subsystem
// (§4.2): it monitors the input-message and time conditions required for
// each scheduled service invocation, triggers service execution once the
// conditions are met, and publishes the outputs to the executors of
// dependent tasks — the fully decentralized, distributed execution phase
// of §3.2. To meet a commitment the participant (1) acquires the required
// inputs from the executors of preceding tasks, (2) travels to the
// required location, and (3) executes the service at the required time.
// A label therefore lives in the run that consumes it: a run registered
// here and not yet started keeps it, and it leaves with that run; a label
// no such run consumes is dropped.
package exec

import (
	"context"
	"fmt"
	"slices"
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

// Manager drives the execution of this host's commitments: one run per
// commitment, each holding the inputs it consumes. It is safe for
// concurrent use.
type Manager struct {
	self     proto.Addr
	clk      clock.Clock
	services *service.Manager
	mobility space.Mobility
	send     SendFunc
	// ctx is the manager's root context, canceled by Close: in-flight
	// service invocations and output publishing stop promptly when the
	// host shuts down.
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	runs map[runKey]*run
}

type runKey struct {
	workflow string
	task     model.TaskID
}

type run struct {
	commitment schedule.Commitment
	// inputs holds the data of the commitment's input labels, the first
	// arrival of each winning; it is made with the first. It is written
	// only before the run starts and read by the invocation after.
	inputs    service.Inputs
	seg       proto.PlanSegment
	hasSeg    bool
	traveling bool
	started   bool
	// finished marks a successful invocation; outputs retains its results
	// so a repaired plan (new consumers for the same task) can re-publish
	// them without re-executing the service.
	finished bool
	outputs  service.Outputs
	timers   []clock.Timer
}

// NewManager returns an execution manager for one host that moves as
// mobility says.
func NewManager(self proto.Addr, clk clock.Clock, services *service.Manager, mobility space.Mobility, send SendFunc) *Manager {
	if clk == nil {
		clk = clock.New()
	}
	m := &Manager{
		self:     self,
		clk:      clk,
		services: services,
		mobility: mobility,
		send:     send,
		runs:     make(map[runKey]*run),
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
// routing plan (SetPlan); conditions are monitored from then on. The host
// registers before it answers the award, and the initiator sends plans
// and triggers only once every award is answered, so a run is always
// here before any label or segment for it.
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
// travel and start timers. A segment whose task is not registered here is
// dropped.
func (m *Manager) SetPlan(workflow string, seg proto.PlanSegment) {
	m.mu.Lock()
	r, ok := m.runs[runKey{workflow, seg.Task}]
	if !ok {
		m.mu.Unlock()
		return
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
	m.mobility.Travel(m.clk.Now(), r.commitment.Location)
}

// OnLabel receives a label transfer (an inter-service message). Each run
// of the workflow that consumes the label and has not started keeps the
// data, and a run whose inputs are now complete is re-checked. A label no
// run here consumes is dropped: it is the initiator's goal, or late.
func (m *Manager) OnLabel(workflow string, lt proto.LabelTransfer) {
	m.mu.Lock()
	var ready []model.TaskID
	for k, r := range m.runs {
		if k.workflow != workflow || r.started || !slices.Contains(r.commitment.Meta.Inputs, lt.Label) {
			continue
		}
		if _, dup := r.inputs[lt.Label]; dup {
			continue
		}
		if r.inputs == nil {
			r.inputs = make(service.Inputs, len(r.commitment.Meta.Inputs))
		}
		r.inputs[lt.Label] = lt.Data
		if len(r.inputs) == len(r.commitment.Meta.Inputs) {
			ready = append(ready, k.task)
		}
	}
	m.mu.Unlock()
	for _, task := range ready {
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

// Cancel drops the run of one task, with its inputs, whatever its state
// (an invocation in flight finds it gone and publishes nothing) or, when
// task is empty, every run of the workflow.
func (m *Manager) Cancel(workflow string, task model.TaskID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, r := range m.runs {
		if k.workflow == workflow && (task == "" || k.task == task) {
			m.forget(k, r)
		}
	}
}

// ClearWorkflow drops all state for a workflow. No product caller; kept
// for the frozen benchmark, goes with the [benchmark] re-baseline.
func (m *Manager) ClearWorkflow(workflow string) { m.Cancel(workflow, "") }

// Reset wipes every run and its inputs (crash simulation); the manager
// stays usable and the restarted host re-registers from scratch.
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, r := range m.runs {
		m.forget(k, r)
	}
}

// Residue returns how many runs and how many label values held by those
// runs the manager holds: zero once every workflow this host served has
// ended.
func (m *Manager) Residue() (runs, labels int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.runs {
		labels += len(r.inputs)
	}
	return len(m.runs), labels
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
	if len(r.inputs) < len(c.Meta.Inputs) {
		m.mu.Unlock()
		return
	}
	if c.HasLocation {
		pos := m.mobility.Position(now)
		if !space.Near(pos, c.Location, locationEps) {
			// Still under way: re-check on arrival.
			eta := space.TravelTime(pos, c.Location, m.mobility.Speed())
			if eta > 0 && eta < 1<<62 {
				t := m.clk.AfterFunc(eta, func() { m.tryStart(workflow, task) })
				r.timers = append(r.timers, t)
			}
			m.mu.Unlock()
			return
		}
	}
	r.started = true
	seg, inputs := r.seg, r.inputs
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
