// Package service implements the Service Manager of the execution
// subsystem (§4.2): it maintains the list of services a host exposes,
// answers capability queries from workflow managers, and provides the
// uniform invocation interface the Execution Manager uses — including
// parameter marshaling and the simulation of services that require user
// action.
//
// A service is a concrete implementation of an abstract task (§2.2); it
// "may involve a computation by the device, an activity performed by the
// user, or some combination of the two."
package service

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/space"
)

// Inputs carries the marshaled input labels of an invocation. They are
// the invocation's own copy: a service may overwrite them in place
// without touching its producers' retained outputs.
type Inputs map[model.LabelID][]byte

// Outputs carries the marshaled output labels an invocation produced.
// Once a Func returns them, the map and its data belong to the run: the
// service must not touch either again.
type Outputs map[model.LabelID][]byte

// Invocation is everything a service sees when executed.
type Invocation struct {
	// Ctx is canceled when the host shuts down or the invocation is
	// abandoned; long-running service bodies should honor it. Nil means
	// context.Background.
	Ctx context.Context
	// Task is the abstract task being performed.
	Task model.TaskID
	// Workflow identifies the open-workflow instance.
	Workflow string
	// Inputs holds the data attached to the labels that triggered the
	// task (disjunctive tasks see only the chosen input).
	Inputs Inputs
	// Now is the (possibly simulated) time of invocation.
	Now time.Time
}

// Func is a computational service body: it transforms inputs to outputs.
// Returning a nil Outputs means "produce all declared outputs with empty
// data" — convenient for condition-only labels. The returned map and its
// data belong to the run from then on (Outputs).
type Func func(inv Invocation) (Outputs, error)

// Descriptor declares one service a host offers.
type Descriptor struct {
	// Task is the abstract task this service implements. Matching is by
	// exact semantic identifier, as in the paper's model.
	Task model.TaskID
	// Specialization in [0,1] ranks how specialized the host is for the
	// task; it is carried in bids (§3.2: "ranking information such as
	// the degree to which the participant is specialized").
	Specialization float64
	// Duration is how long the service takes to perform.
	Duration time.Duration
	// Location is where the service must be performed (a kitchen, a
	// spill site), nil for anywhere. Like proto.TaskMeta.Location it is
	// shared, not copied: replace the point, never write through it.
	Location *space.Point
	// UserAction marks a service performed by the human participant
	// (the paper's form/button services); the simulator completes it
	// after Duration without a Func.
	UserAction bool
}

// validate checks the descriptor.
func (d Descriptor) validate() error {
	if d.Task == "" {
		return fmt.Errorf("service has empty task ID")
	}
	if d.Specialization < 0 || d.Specialization > 1 {
		return fmt.Errorf("service %q: specialization %v outside [0,1]", d.Task, d.Specialization)
	}
	if d.Duration < 0 {
		return fmt.Errorf("service %q: negative duration", d.Task)
	}
	return nil
}

// Registration couples a descriptor with its implementation. Fn may be nil
// for user-action or pure-condition services; the manager then produces
// all declared outputs with data echoing the task identity.
type Registration struct {
	Descriptor Descriptor
	Fn         Func
}

// Manager is a host's service registry. It is safe for concurrent use.
type Manager struct {
	clk clock.Clock

	mu       sync.RWMutex
	services map[model.TaskID]Registration
	// tasks lists the services' tasks, sorted, once Tasks has built it;
	// a change drops it, never edits it, so Tasks can share it.
	tasks []model.TaskID
}

// NewManager returns an empty service manager. The clock paces simulated
// service durations (user actions, fixed-duration work).
func NewManager(clk clock.Clock) *Manager {
	if clk == nil {
		clk = clock.New()
	}
	return &Manager{clk: clk, services: make(map[model.TaskID]Registration)}
}

// Register adds a service. Registering a second service for the same task
// replaces the first (a device exposes one implementation per task).
func (m *Manager) Register(reg Registration) error {
	if err := reg.Descriptor.validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.services[reg.Descriptor.Task] = reg
	m.tasks = nil
	return nil
}

// Unregister removes the service for a task, if present.
func (m *Manager) Unregister(task model.TaskID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.services, task)
	m.tasks = nil
}

// CanPerform reports whether the host offers a service for the task, and
// returns its descriptor.
func (m *Manager) CanPerform(task model.TaskID) (Descriptor, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	reg, ok := m.services[task]
	return reg.Descriptor, ok
}

// Capable filters the given tasks down to those this host can perform
// (the reply to a Service Feasibility query).
func (m *Manager) Capable(tasks []model.TaskID) []model.TaskID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []model.TaskID
	for _, t := range tasks {
		if _, ok := m.services[t]; ok {
			out = append(out, t)
		}
	}
	return out
}

// Count returns how many services the host offers — the auction's primary
// selection criterion prefers hosts offering fewer services.
func (m *Manager) Count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.services)
}

// Tasks returns the tasks this host offers services for, sorted. The
// list is built on the first call after a change and shared by every
// caller until the next Register or Unregister, so the caller must not
// modify it.
func (m *Manager) Tasks() []model.TaskID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tasks == nil {
		m.tasks = make([]model.TaskID, 0, len(m.services))
		for t := range m.services {
			m.tasks = append(m.tasks, t)
		}
		slices.Sort(m.tasks)
	}
	return m.tasks
}

// Invoke performs the service for a task: it blocks for the service's
// duration (real work or simulated user action) and returns the marshaled
// outputs for the declared output labels: the body's own map when it holds
// exactly those, else a new one. The declared outputs must be
// supplied so that services with pruned outputs only produce what the
// workflow needs. Cancellation of inv.Ctx interrupts the duration wait
// and is passed through to the service body.
func (m *Manager) Invoke(inv Invocation, declaredOutputs []model.LabelID) (Outputs, error) {
	if inv.Ctx == nil {
		inv.Ctx = context.Background() //openwf:allow-background nil-ctx fallback for direct library callers; engine-driven invocations always carry the run ctx
	}
	m.mu.RLock()
	reg, ok := m.services[inv.Task]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no service for task %q", inv.Task)
	}
	if d := reg.Descriptor.Duration; d > 0 {
		select {
		case <-m.clk.After(d):
		case <-inv.Ctx.Done():
			return nil, fmt.Errorf("service %q: %w", inv.Task, inv.Ctx.Err())
		}
	}
	var outs Outputs
	if reg.Fn != nil {
		var err error
		outs, err = reg.Fn(inv)
		if err != nil {
			return nil, fmt.Errorf("service %q failed: %w", inv.Task, err)
		}
	}
	// Uniform marshaling: ensure every declared output label is present,
	// defaulting to a provenance note for condition-only labels, and no
	// other. A body that produced exactly the declared labels keeps its map.
	if exact(outs, declaredOutputs) {
		return outs, nil
	}
	result := make(Outputs, len(declaredOutputs))
	for _, l := range declaredOutputs {
		if outs != nil {
			if data, ok := outs[l]; ok {
				result[l] = data
				continue
			}
		}
		result[l] = []byte(fmt.Sprintf("%s by %s", l, inv.Task))
	}
	return result, nil
}

// exact reports whether outs holds exactly the declared labels.
func exact(outs Outputs, declared []model.LabelID) bool {
	if outs == nil || len(outs) != len(declared) {
		return false
	}
	for _, l := range declared {
		if _, ok := outs[l]; !ok {
			return false
		}
	}
	return true
}
