// Package openwf is an open workflow management system: a Go
// implementation of "Achieving Coordination Through Dynamic Construction
// of Open Workflows" (Thomas, Wilson, Roman, Gill — WUCSE-2009-14,
// MIDDLEWARE 2009).
//
// Open workflows invert the classical workflow paradigm: instead of
// executing a handcrafted static graph, a transient community of mobile
// hosts dynamically constructs a custom workflow from workflow fragments
// (knowhow) scattered across its members, allocates the workflow's tasks
// by auction against each member's capabilities, schedule, and location,
// and executes it in a fully decentralized fashion.
//
// The package is a facade over the internal subsystems:
//
//   - the workflow model (labels, tasks, fragments, composition, pruning),
//   - the construction algorithm (supergraph coloring, Algorithm 1),
//   - the communications layer (simulated network and TCP),
//   - the execution subsystem (fragment/service/schedule/execution
//     managers, auction participation), and
//   - the construction subsystem (workflow manager, auction manager).
//
// # Quickstart
//
// Every blocking entry point takes a context.Context; cancellation and
// deadlines propagate through community queries, auctions, and
// execution:
//
//	com, err := openwf.NewCommunity([]openwf.HostSpec{
//	    {ID: "requester"},
//	    {
//	        ID: "worker",
//	        Fragments: []*openwf.Fragment{openwf.MustFragment("know",
//	            openwf.Task{ID: "do it", Mode: openwf.Conjunctive,
//	                Inputs:  []openwf.LabelID{"need"},
//	                Outputs: []openwf.LabelID{"done"}})},
//	        Services: []openwf.ServiceRegistration{openwf.SimpleService("do it")},
//	    },
//	})
//	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
//	defer cancel()
//	plan, err := com.Initiate(ctx, "requester", openwf.MustSpec(
//	    []openwf.LabelID{"need"}, []openwf.LabelID{"done"}))
//	report, err := com.Execute(ctx, "requester", plan, nil)
//
// Execute's id is the plan's initiator: the host that allocated it, where
// the goals return.
//
// Communities are open: any member may initiate at any time, so a host
// routinely carries several allocation sessions at once. Initiate calls
// may overlap freely, or a batch can be multiplexed explicitly:
//
//	plans, err := com.InitiateAll(ctx, "requester", []openwf.Spec{specA, specB, specC})
//
// Sessions are isolated end to end (per-workflow dispatcher queues on
// every host, per-session auction state, first-hold-wins schedule
// arbitration); see DESIGN.md §8.
//
// A host remembers what its community's members told it — what they know
// and what they offer — so later sessions on the same host construct from
// memory and send only calls for bids and awards (DESIGN.md §13).
//
// See the examples directory for complete programs and DESIGN.md for the
// system inventory; cmd/figures reproduces the paper's evaluation.
package openwf

import (
	"time"

	"openwf/internal/community"
	"openwf/internal/core"
	"openwf/internal/engine"
	"openwf/internal/evalgen"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/space"
	"openwf/internal/spec"
	"openwf/internal/transport/inmem"
)

// Core model types.
type (
	// LabelID is the semantic identifier of a label (condition/data).
	LabelID = model.LabelID
	// TaskID is the semantic identifier of an abstract task.
	TaskID = model.TaskID
	// Task is a single abstract behavior with labeled pre/postconditions.
	Task = model.Task
	// Mode states how a task consumes inputs (Conjunctive/Disjunctive).
	Mode = model.Mode
	// Fragment is a small workflow encoding one participant's knowhow.
	Fragment = model.Fragment
	// Workflow is a validated bipartite task/label DAG.
	Workflow = model.Workflow
	// Spec is a problem specification: triggers ι and goals ω.
	Spec = spec.Spec
	// Constraints are the richer specification options of §5.1.
	Constraints = spec.Constraints
)

// Task modes.
const (
	// Conjunctive tasks require all of their inputs.
	Conjunctive = model.Conjunctive
	// Disjunctive tasks require exactly one of their inputs.
	Disjunctive = model.Disjunctive
)

// Community and host types.
type (
	// Addr identifies a host in the community.
	Addr = proto.Addr
	// Community is a running set of participant hosts.
	Community = community.Community
	// HostSpec describes one participant device.
	HostSpec = community.HostSpec
	// Transport selects the communications substrate.
	Transport = community.Transport
	// EngineConfig tunes the workflow engine.
	EngineConfig = engine.Config
	// Observer receives construction and auction events (see
	// WithObserver). All fields are optional.
	Observer = engine.Observer
	// Plan is a constructed and fully allocated workflow.
	Plan = engine.Plan
	// Report summarizes one workflow execution.
	Report = engine.Report
	// Preferences expresses a host's scheduling willingness.
	Preferences = schedule.Preferences
	// Commitment is a scheduled service invocation.
	Commitment = schedule.Commitment
	// TaskMeta is per-task auction/execution metadata.
	TaskMeta = proto.TaskMeta
	// ConstructionResult carries one construction's metrics (explored
	// region, supergraph size, collection rounds).
	ConstructionResult = core.Result
)

// Transports.
const (
	// InMem is the simulated network (the paper's simulation setup).
	InMem = community.InMem
	// TCP uses real loopback sockets (the empirical configuration).
	TCP = community.TCP
)

// Service types.
type (
	// ServiceRegistration couples a service descriptor with its body.
	ServiceRegistration = service.Registration
	// ServiceDescriptor declares one service a host offers.
	ServiceDescriptor = service.Descriptor
	// ServiceFunc is a computational service body.
	ServiceFunc = service.Func
	// Invocation is what a service sees when executed.
	Invocation = service.Invocation
	// Outputs carries the labels a service produced.
	Outputs = service.Outputs
	// Point is a position on the plane (meters).
	Point = space.Point
)

// LinkModel shapes the simulated network's latency and loss.
type LinkModel = inmem.LinkModel

// NewFragment builds and validates a workflow fragment.
func NewFragment(name string, tasks ...Task) (*Fragment, error) {
	return model.NewFragment(name, tasks...)
}

// MustFragment is NewFragment that panics on invalid input; intended for
// statically known fragment literals.
func MustFragment(name string, tasks ...Task) *Fragment {
	return model.MustFragment(name, tasks...)
}

// NewSpec builds and validates a problem specification.
func NewSpec(triggers, goals []LabelID) (Spec, error) {
	return spec.New(triggers, goals)
}

// MustSpec is NewSpec that panics on invalid input.
func MustSpec(triggers, goals []LabelID) Spec {
	return spec.Must(triggers, goals)
}

// Option configures NewCommunity.
type Option func(*settings)

// settings accumulates the facade's functional options.
type settings struct {
	comm        community.Options
	engine      engine.Config
	engineSet   bool
	observer    Observer
	observerSet bool
}

// engineConfig resolves the effective engine configuration: the
// configured one (or the default), with the observer wired in.
func (s *settings) engineConfig() engine.Config {
	cfg := s.engine
	if !s.engineSet {
		cfg = engine.DefaultConfig()
	}
	if s.observerSet {
		cfg.Observer = s.observer
	}
	return cfg
}

func apply(opts []Option) *settings {
	s := &settings{}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// WithTransport selects the communications substrate (default InMem).
func WithTransport(t Transport) Option {
	return func(s *settings) { s.comm.Transport = t }
}

// WithEngineConfig sets every host's workflow-engine configuration.
func WithEngineConfig(cfg EngineConfig) Option {
	return func(s *settings) { s.engine, s.engineSet = cfg, true }
}

// WithLinkModel shapes the simulated network's latency and loss
// (in-memory transport only).
func WithLinkModel(m LinkModel) Option {
	return func(s *settings) { s.comm.LinkModel = m }
}

// WithObserver registers callbacks for construction and auction events.
// Callbacks must be fast, non-blocking, and safe for concurrent use.
func WithObserver(o Observer) Option {
	return func(s *settings) { s.observer, s.observerSet = o, true }
}

// WithSeed seeds the simulated network's randomness (jitter, loss).
func WithSeed(seed int64) Option {
	return func(s *settings) { s.comm.Seed = seed }
}

// WithStoreAndForward buffers messages across partitions on the
// in-memory network (delay-tolerant delivery) instead of losing them.
func WithStoreAndForward() Option {
	return func(s *settings) { s.comm.StoreAndForward = true }
}

// NewCommunity builds and starts a community of hosts.
func NewCommunity(hosts []HostSpec, opts ...Option) (*Community, error) {
	s := apply(opts)
	cfg := s.engineConfig()
	s.comm.Engine = &cfg
	return community.New(s.comm, hosts...)
}

// DefaultEngineConfig returns the engine configuration the evaluation
// uses: incremental fragment collection with feasibility filtering.
func DefaultEngineConfig() EngineConfig { return engine.DefaultConfig() }

// SimpleService registers a zero-duration service for a task — enough for
// simulations and condition-only workflows.
func SimpleService(task TaskID) ServiceRegistration {
	return ServiceRegistration{
		Descriptor: ServiceDescriptor{Task: task, Specialization: 0.5},
	}
}

// TimedService registers a service that takes the given duration, with an
// optional computational body.
func TimedService(task TaskID, duration time.Duration, fn ServiceFunc) ServiceRegistration {
	return ServiceRegistration{
		Descriptor: ServiceDescriptor{Task: task, Specialization: 0.5, Duration: duration},
		Fn:         fn,
	}
}

// LocatedService registers a service pinned to a location: commitments to
// it include the travel time to get there.
func LocatedService(task TaskID, at Point, duration time.Duration, fn ServiceFunc) ServiceRegistration {
	return ServiceRegistration{
		Descriptor: ServiceDescriptor{
			Task: task, Specialization: 0.5, Duration: duration,
			Location: at, HasLocation: true,
		},
		Fn: fn,
	}
}

// WirelessLinkModel models an 802.11-style medium for the simulated
// network: per-message base latency plus serialization at the bandwidth,
// plus uniform jitter. Wireless80211g below matches the paper's empirical
// setup.
func WirelessLinkModel(base, jitter time.Duration, bandwidthBps float64) LinkModel {
	return inmem.Wireless(base, jitter, bandwidthBps)
}

// Wireless80211g is the link model of the paper's empirical configuration,
// the one cmd/figures and the benchmarks run Figure 6 on: 802.11g at
// 54 Mbit/s, 0.5 ms per hop plus up to 0.2 ms of jitter.
func Wireless80211g() LinkModel { return evalgen.Wireless80211g() }
