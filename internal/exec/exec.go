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
// no such run consumes is dropped. A label a run publishes to its own host
// never leaves it: the runs here take it in place, and the one it readies
// first runs next on the producer's goroutine.
package exec

import (
	"bytes"
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

// SendFunc transmits an envelope, a LabelTransfer or a failure's TaskDone,
// to another host. The host injects it: the envelope crosses the endpoint,
// a TaskDone as a request, nil only once it is acked. Nothing addressed to
// the host itself goes through it (LocalFunc).
type SendFunc func(ctx context.Context, to proto.Addr, env proto.Envelope) error

// LocalFunc takes what a run here sends its own host, which never crosses
// the link: a label published to it, once the runs here have taken theirs,
// or, when failure names a task, that failure for the host's own
// initiator. The host injects it, and hands either to its engine. A
// label's Data is its own copy (publish), so neither a run's inputs nor a
// goal is ever the producer's retained outputs.
type LocalFunc func(workflow string, lt proto.LabelTransfer, failure proto.TaskDone)

// Manager drives the execution of this host's commitments: one run per
// commitment, each holding the inputs it consumes. It is safe for
// concurrent use.
type Manager struct {
	self     proto.Addr
	clk      clock.Clock
	services *service.Manager
	mobility space.Mobility
	send     SendFunc
	local    LocalFunc
	// recheck is m.tryStart, bound once, which the start timers call: a
	// direct call from them would put the whole start path in one
	// recursive cycle, where the compiler moves the ready buffers of
	// OnLabel and handOn to the heap.
	recheck func(workflow string, task model.TaskID)
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
	inputs service.Inputs
	// seg is the run's routing: its award's, or a repair's plan request.
	seg       proto.PlanSegment
	traveling bool
	// armed marks the start timer: it is armed once, when the run lacks
	// nothing but its window (tryStart).
	armed   bool
	started bool
	// finished marks a successful invocation; outputs retains its results
	// so a repaired plan (new consumers for the same task) can re-publish
	// them without re-executing the service.
	finished bool
	outputs  service.Outputs
	timers   []clock.Timer
}

// NewManager returns an execution manager for one host that moves as
// mobility says, sends to other hosts through send and hands what it sends
// its own host to local.
func NewManager(self proto.Addr, clk clock.Clock, services *service.Manager, mobility space.Mobility, send SendFunc, local LocalFunc) *Manager {
	if clk == nil {
		clk = clock.New()
	}
	m := &Manager{
		self:     self,
		clk:      clk,
		services: services,
		mobility: mobility,
		send:     send,
		local:    local,
		runs:     make(map[runKey]*run),
	}
	m.recheck = m.tryStart
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

// Register records an awarded commitment with its routing, which rode on
// the award (proto.Award.Routes), and sets it on its way to the
// commitment's location. Its start timer waits for tryStart: an award that
// is never executed arms nothing. The host registers before it answers the
// award, and the initiator sends plans and triggers only once every award
// is answered, so a run is always here before any label or segment for it.
// A later award of the same task, not yet started, replaces the run: the
// earlier one was cancelled.
func (m *Manager) Register(workflow string, c schedule.Commitment, seg proto.PlanSegment) {
	m.mu.Lock()
	k := runKey{workflow, c.Task}
	if r, dup := m.runs[k]; dup {
		if r.started {
			m.mu.Unlock()
			return
		}
		m.forget(k, r)
	}
	r := &run{commitment: c, seg: seg}
	m.runs[k] = r
	if c.Meta.Location != nil {
		if d := c.TravelStart.Sub(m.clk.Now()); d > 0 {
			// The closure captures the task alone: capturing c would move
			// every commitment to the heap, located or not.
			task := c.Task
			r.timers = append(r.timers, m.clk.AfterFunc(d, func() { m.beginTravel(workflow, task) }))
		} else {
			m.beginTravelLocked(r)
		}
	}
	m.mu.Unlock()
	m.tryStart(workflow, c.Task)
}

// SetPlan replaces the routing of a registered run: a repair re-homed one
// of its consumers. A run that has finished re-publishes its retained
// outputs along the new routes instead — receivers deduplicate labels, so
// surviving consumers see nothing new. A segment whose task is not
// registered here is dropped.
func (m *Manager) SetPlan(workflow string, seg proto.PlanSegment) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[runKey{workflow, seg.Task}]
	if !ok {
		return
	}
	r.seg = seg
	if r.finished {
		outputs := r.outputs
		go func() { m.invoke(workflow, m.handOn(workflow, r, seg, outputs)) }()
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
	m.mobility.Travel(m.clk.Now(), *r.commitment.Meta.Location)
}

// OnLabel receives a label transfer (an inter-service message) from
// another host, and starts each run it readies (deliver) on its own
// goroutine.
func (m *Manager) OnLabel(workflow string, lt proto.LabelTransfer) {
	var buf [4]*run
	for _, r := range m.deliver(workflow, lt, buf[:0]) {
		go m.invoke(workflow, r)
	}
}

// deliver gives a label to the runs here: each run of the workflow that
// consumes the label and has not started keeps the data, and one whose
// inputs are now complete is checked (startLocked). It appends to ready
// each run that starts now, for the caller to invoke. A label no run here
// consumes is dropped: it is the initiator's goal, or late.
func (m *Manager) deliver(workflow string, lt proto.LabelTransfer, ready []*run) []*run {
	m.mu.Lock()
	defer m.mu.Unlock()
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
		if m.startLocked(workflow, r) {
			ready = append(ready, r)
		}
	}
	return ready
}

// forget stops a run's timers and drops it. Callers hold m.mu.
func (m *Manager) forget(k runKey, r *run) {
	for _, t := range r.timers {
		t.Stop()
	}
	delete(m.runs, k)
}

// Cancel drops the runs of the listed tasks, with their inputs, whatever
// their state (an invocation in flight finds its run gone and publishes
// nothing) or, when tasks is empty, every run of the workflow.
func (m *Manager) Cancel(workflow string, tasks ...model.TaskID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, r := range m.runs {
		if k.workflow == workflow && (len(tasks) == 0 || slices.Contains(tasks, k.task)) {
			m.forget(k, r)
		}
	}
}

// ClearWorkflow drops all state for a workflow. No product caller; kept
// for the frozen benchmark, goes with the [benchmark] re-baseline.
func (m *Manager) ClearWorkflow(workflow string) { m.Cancel(workflow) }

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

// Finished returns those of the named tasks whose run on this host has
// finished, in the order named.
func (m *Manager) Finished(workflow string, tasks []model.TaskID) []model.TaskID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []model.TaskID
	for _, t := range tasks {
		if r, ok := m.runs[runKey{workflow, t}]; ok && r.finished {
			out = append(out, t)
		}
	}
	return out
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

// tryStart starts a run whose conditions hold (startLocked) on its own
// goroutine.
func (m *Manager) tryStart(workflow string, task model.TaskID) {
	m.mu.Lock()
	r, ok := m.runs[runKey{workflow, task}]
	start := ok && m.startLocked(workflow, r)
	m.mu.Unlock()
	if start {
		go m.invoke(workflow, r)
	}
}

// startLocked checks a run's conditions — all inputs received, window
// open, location reached — and reports whether they all hold: the run is
// then marked started, and the caller invokes it. A run lacking only its
// window arms the start timer that re-checks it then. Callers hold m.mu.
func (m *Manager) startLocked(workflow string, r *run) bool {
	c := &r.commitment
	if r.started || len(r.inputs) < len(c.Meta.Inputs) {
		return false
	}
	now := m.clk.Now()
	task := c.Task
	if now.Before(c.Start) {
		if !r.armed {
			r.armed = true
			r.timers = append(r.timers, m.clk.AfterFunc(c.Start.Sub(now), func() { m.recheck(workflow, task) }))
		}
		return false
	}
	if at := c.Meta.Location; at != nil {
		pos := m.mobility.Position(now)
		if !space.Near(pos, *at, locationEps) {
			// Still under way: re-check on arrival.
			eta := space.TravelTime(pos, *at, m.mobility.Speed())
			if eta > 0 && eta < 1<<62 {
				r.timers = append(r.timers, m.clk.AfterFunc(eta, func() { m.recheck(workflow, task) }))
			}
			return false
		}
	}
	r.started = true
	return true
}

// invoke performs the service of a started run and publishes its results,
// then does the same for the run that publishing started next (handOn),
// until there is none: a chain of runs on this host runs on one goroutine.
func (m *Manager) invoke(workflow string, r *run) {
	for r != nil {
		r = m.perform(workflow, r)
	}
}

// perform performs the service of a started run and hands its results on,
// returning the run to perform next, or nil. A started run's commitment and
// inputs no longer change; its routes may, so they are read under m.mu once
// the service returns.
func (m *Manager) perform(workflow string, r *run) *run {
	c := &r.commitment
	inv := service.Invocation{
		Ctx:      m.ctx,
		Task:     c.Task,
		Workflow: workflow,
		Inputs:   r.inputs,
		Now:      m.clk.Now(),
	}
	outputs, err := m.services.Invoke(inv, c.Meta.Outputs)
	// Retain the results: a plan repair may later route them to new
	// consumers (SetPlan re-publishes for finished runs), and publish along
	// the routes a repair gave the run meanwhile. A run dropped
	// mid-invocation owes nobody its outputs, not even to a run of the same
	// task registered since.
	m.mu.Lock()
	seg := r.seg
	live := err == nil && m.runs[runKey{workflow, c.Task}] == r
	if live {
		r.finished = true
		r.outputs = outputs
	}
	m.mu.Unlock()
	if err != nil {
		if m.ctx.Err() == nil { // else the host is shutting down: nobody to notify
			m.reportFailure(workflow, r, seg, fmt.Errorf("executing %q: %w", c.Task, err))
		}
		return nil
	}
	if !live {
		return nil
	}
	return m.handOn(workflow, r, seg, outputs)
}

// handOn publishes r's outputs along seg and returns the first run here
// that publishing started, for the caller's goroutine to perform next;
// every other run it started gets a goroutine of its own. A publish that
// failed starts each of them on its own goroutine before the failure is
// reported: a report the initiator does not answer is retried, and must
// not hold back a consumer here.
func (m *Manager) handOn(workflow string, r *run, seg proto.PlanSegment, outputs service.Outputs) *run {
	var buf [4]*run
	ready, err := m.publish(workflow, &r.commitment, seg, outputs, buf[:0])
	if err != nil {
		for _, next := range ready {
			go m.invoke(workflow, next)
		}
		m.reportFailure(workflow, r, seg, err)
		return nil
	}
	if len(ready) == 0 {
		return nil
	}
	for _, next := range ready[1:] {
		go m.invoke(workflow, next)
	}
	return ready[0]
}

// publish communicates the outputs to every participant that requires
// them (§3.2: the participant's final responsibility). The routes may be
// an award's, shared by all its tasks: each run follows those of its own
// outputs. The outputs stay the run's: every receiver gets a copy — the
// codec's for another host, and one made here for this host — so a
// repair re-publishes them intact. A label for this host is delivered to
// its runs in place, and then handed to the host (LocalFunc); publish
// appends to ready the runs it started, and returns them.
func (m *Manager) publish(workflow string, c *schedule.Commitment, seg proto.PlanSegment, outputs service.Outputs, ready []*run) ([]*run, error) {
	for _, out := range c.Meta.Outputs {
		for _, rt := range seg.Routes {
			if rt.Label != out {
				continue
			}
			lt := proto.LabelTransfer{Label: out, Data: outputs[out], Producer: m.self}
			if rt.To == m.self {
				lt.Data = bytes.Clone(lt.Data)
				ready = m.deliver(workflow, lt, ready)
				m.local(workflow, lt, proto.TaskDone{})
				continue
			}
			if err := m.send(m.ctx, rt.To, proto.Envelope{Workflow: workflow, Body: lt}); err != nil {
				return ready, fmt.Errorf("publishing %q: %w", out, err)
			}
		}
	}
	return ready, nil
}

// reportFailure tells the initiator that r's task failed, and tells it
// again after every try that gets no answer, until one is acked or the run
// is dropped: by the initiator's release, or by the lease sweep once the
// initiator is gone. A success is not reported: the goals arriving
// complete the workflow, and a lease refresh asks which runs finished
// (Finished). A failure for this host's own initiator is handed over in
// place, once.
func (m *Manager) reportFailure(workflow string, r *run, seg proto.PlanSegment, err error) {
	td := proto.TaskDone{Task: seg.Task, Err: err.Error()}
	if seg.Initiator == m.self {
		m.local(workflow, proto.LabelTransfer{}, td)
		return
	}
	env := proto.Envelope{Workflow: workflow, Body: td}
	for m.send(m.ctx, seg.Initiator, env) != nil && m.ctx.Err() == nil && m.registered(workflow, r) {
		// No answer: the initiator may be alive and the report lost.
	}
}

// registered reports whether r is still the run of its task in workflow.
func (m *Manager) registered(workflow string, r *run) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs[runKey{workflow, r.commitment.Task}] == r
}
