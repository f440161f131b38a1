// Package community builds and operates a transient community of hosts for
// simulations, examples, and tests: N participant devices joined by either
// the simulated in-memory network or real TCP loopback sockets. It is the
// programmatic equivalent of the paper's deployment steps (§4.1): install
// the program on the users' devices, add knowhow (workflow fragments), add
// service descriptions — after which any participant can pose a problem
// specification.
package community

import (
	"context"
	"fmt"

	"openwf/internal/clock"
	"openwf/internal/discovery"
	"openwf/internal/engine"
	"openwf/internal/host"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/space"
	"openwf/internal/spec"
	"openwf/internal/trace"
	"openwf/internal/transport"
	"openwf/internal/transport/inmem"
	"openwf/internal/transport/tcpnet"
)

// Transport selects the communications substrate.
type Transport int

const (
	// InMem is the simulated network (the paper's simulation setup).
	InMem Transport = iota + 1
	// TCP uses real loopback sockets (the empirical configuration).
	TCP
)

// Options configure a community.
type Options struct {
	// Transport selects the substrate (default InMem).
	Transport Transport
	// Clock paces all hosts and the network (default: wall clock).
	Clock clock.Clock
	// LinkModel adds latency/loss to the in-memory network (ignored for
	// TCP). Nil means instantaneous delivery.
	LinkModel inmem.LinkModel
	// Seed seeds the network's randomness (jitter, loss).
	Seed int64
	// StoreAndForward buffers messages across partitions on the
	// in-memory network instead of losing them (delay-tolerant
	// delivery; see inmem.WithStoreAndForward).
	StoreAndForward bool
	// Engine configures every host's workflow engine; the zero value
	// selects engine.DefaultConfig.
	Engine *engine.Config
	// Trace, when non-nil, records every message every host sends or
	// receives (one shared recorder across the community).
	Trace trace.Recorder
	// Discovery, when non-nil, runs the advertiser on every host: members
	// push their label/task capabilities on the configured cadence, so
	// initiators know them without asking and stop soliciting a member
	// one TTL after it falls silent (internal/discovery). Hosts remember
	// what members say about themselves, and route by it, either way.
	// Each host's advertiser jitter is seeded deterministically from Seed
	// and its creation ordinal.
	Discovery *host.DiscoveryConfig
}

// HostSpec describes one participant device.
type HostSpec struct {
	// ID is the host's community address.
	ID proto.Addr
	// Fragments is the device's knowhow.
	Fragments []*model.Fragment
	// Services are the device's capabilities.
	Services []service.Registration
	// Location places the host on the plane.
	Location space.Point
	// Speed, when positive, makes the host mobile (m/s).
	Speed float64
	// Prefs expresses scheduling willingness.
	Prefs schedule.Preferences
}

// Community is a running set of hosts.
type Community struct {
	clk     clock.Clock
	hosts   map[proto.Addr]*host.Host
	order   []proto.Addr
	network *inmem.Network
	tcps    []*tcpnet.Transport
}

// New builds and starts a community.
func New(opts Options, specs ...HostSpec) (*Community, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("community: no hosts")
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.New()
	}
	engCfg := engine.DefaultConfig()
	if opts.Engine != nil {
		engCfg = *opts.Engine
	}
	if opts.Transport == 0 {
		opts.Transport = InMem
	}

	c := &Community{clk: clk, hosts: make(map[proto.Addr]*host.Host, len(specs))}
	members := make([]proto.Addr, 0, len(specs))
	for i, hs := range specs {
		if _, dup := c.hosts[hs.ID]; dup {
			return nil, fmt.Errorf("community: duplicate host %q", hs.ID)
		}
		var disc *host.DiscoveryConfig
		if opts.Discovery != nil {
			dc := *opts.Discovery
			dc.Seed = opts.Seed*1_000_003 + int64(i)
			disc = &dc
		}
		var mobility space.Mobility
		if hs.Speed > 0 {
			mobility = space.NewMover(hs.Location, hs.Speed)
		} else {
			mobility = space.Static{P: hs.Location}
		}
		h, err := host.New(host.Config{
			Addr:      hs.ID,
			Clock:     clk,
			Mobility:  mobility,
			Prefs:     hs.Prefs,
			Engine:    engCfg,
			Fragments: hs.Fragments,
			Services:  hs.Services,
			Trace:     opts.Trace,
			Discovery: disc,
		})
		if err != nil {
			return nil, err
		}
		c.hosts[hs.ID] = h
		c.order = append(c.order, hs.ID)
		members = append(members, hs.ID)
	}

	switch opts.Transport {
	case InMem:
		netOpts := []inmem.Option{
			inmem.WithClock(clk),
			inmem.WithSeed(opts.Seed),
			inmem.WithStoreAndForward(opts.StoreAndForward),
		}
		if opts.LinkModel != nil {
			netOpts = append(netOpts, inmem.WithLinkModel(opts.LinkModel))
		}
		c.network = inmem.NewNetwork(netOpts...)
		for _, id := range c.order {
			h := c.hosts[id]
			ep, err := c.network.Endpoint(id, h.Handle)
			if err != nil {
				_ = c.Close()
				return nil, err
			}
			h.Attach(ep)
		}
	case TCP:
		registry := make(map[proto.Addr]string, len(specs))
		for _, id := range c.order {
			h := c.hosts[id]
			tr, hostport, err := tcpnet.Listen(id, h.Handle)
			if err != nil {
				_ = c.Close()
				return nil, err
			}
			c.tcps = append(c.tcps, tr)
			registry[id] = hostport
			h.Attach(tr)
		}
		for _, tr := range c.tcps {
			tr.SetRegistry(registry)
		}
	default:
		return nil, fmt.Errorf("community: unknown transport %d", opts.Transport)
	}

	for _, id := range c.order {
		c.hosts[id].SetMembers(members)
	}
	return c, nil
}

// Host returns the host with the given address.
func (c *Community) Host(id proto.Addr) (*host.Host, bool) {
	h, ok := c.hosts[id]
	return h, ok
}

// Members returns the community's addresses in creation order.
func (c *Community) Members() []proto.Addr {
	return append([]proto.Addr(nil), c.order...)
}

// Network returns the simulated network, or nil when running over TCP.
func (c *Community) Network() *inmem.Network { return c.network }

// Clock returns the clock pacing the community's hosts and network.
func (c *Community) Clock() clock.Clock { return c.clk }

// TransportStats returns the community's framing and round-trip counters
// regardless of substrate: the simulated network's counters as-is, or
// the sum over every host's TCP transport — the uniform surface the
// daemon's metrics registry scrapes.
func (c *Community) TransportStats() transport.Stats {
	if c.network != nil {
		return c.network.Stats()
	}
	var sum transport.Stats
	for _, tr := range c.tcps {
		sum.Add(tr.Stats())
	}
	return sum
}

// Initiate poses a problem specification at the given host and returns
// the allocated plan — the operation the evaluation times. The context
// cancels community queries and auction waits promptly.
func (c *Community) Initiate(ctx context.Context, id proto.Addr, s spec.Spec) (*engine.Plan, error) {
	h, ok := c.hosts[id]
	if !ok {
		return nil, fmt.Errorf("community: no host %q", id)
	}
	return h.Engine.Initiate(ctx, s)
}

// InitiateAll poses several problem specifications at the same host at
// once — N allocation sessions multiplexed over one initiator, the open
// community's normal operating mode (any member may initiate at any
// time). Sessions run concurrently and return plans in specification
// order; workflow IDs are minted in that order before any session
// starts, so a fixed community and specification list reproduce the same
// IDs regardless of interleaving. A failed session leaves a nil plan at
// its index, and the returned error joins every session's error (nil
// when all succeed).
func (c *Community) InitiateAll(ctx context.Context, id proto.Addr, specs []spec.Spec) ([]*engine.Plan, error) {
	h, ok := c.hosts[id]
	if !ok {
		return nil, fmt.Errorf("community: no host %q", id)
	}
	return h.Engine.InitiateBatch(ctx, specs)
}

// WarmDiscovery synchronously populates the given host's index: one pull
// sweep over the community (Advertise request + AdvertiseAck per member),
// after which even its first session asks nobody to describe itself.
// Requires Options.Discovery.
func (c *Community) WarmDiscovery(ctx context.Context, id proto.Addr) error {
	h, ok := c.hosts[id]
	if !ok {
		return fmt.Errorf("community: no host %q", id)
	}
	return h.AdvertiseNow(ctx)
}

// DiscoveryStats aggregates every host's index counters.
func (c *Community) DiscoveryStats() discovery.Stats {
	var sum discovery.Stats
	for _, id := range c.order {
		sum.Add(c.hosts[id].Discovery().Stats())
	}
	return sum
}

// CrashHost kills a host: its network endpoint goes dark (frames to and
// from it drop, queued messages are purged) and its volatile protocol
// state — calendar, firm bids, commitment leases, execution runs,
// buffered labels — is wiped, so a FaultRestart in ScheduleFaults revives
// a blank participant that kept only its static configuration. In-memory
// transport only.
func (c *Community) CrashHost(id proto.Addr) error {
	if c.network == nil {
		return fmt.Errorf("community: fault injection requires the in-memory transport")
	}
	h, ok := c.hosts[id]
	if !ok {
		return fmt.Errorf("community: no host %q", id)
	}
	c.network.Crash(id)
	h.Reset()
	return nil
}

// ScheduleFaults arms a timed fault schedule against the community's
// clock: transport faults apply on the network, and a FaultCrash
// additionally wipes the host's volatile protocol state (the transport
// cannot reach it; the "restart loses everything" semantics live here).
// notify, when non-nil, observes each fault after it is applied; it runs
// on the clock's timer goroutine and must not block on further clock
// advances. In-memory transport only.
func (c *Community) ScheduleFaults(faults []inmem.Fault, notify func(inmem.Fault)) error {
	if c.network == nil {
		return fmt.Errorf("community: fault injection requires the in-memory transport")
	}
	c.network.ScheduleFaults(faults, func(f inmem.Fault) {
		switch f.Kind {
		case inmem.FaultCrash:
			if h, ok := c.hosts[f.Host]; ok {
				h.Reset()
			}
		case inmem.FaultRestart:
			if h, ok := c.hosts[f.Host]; ok {
				h.Reset()
				// Re-advertise asynchronously: this callback runs on the
				// clock's timer goroutine and must not block on sends.
				h.AdvertiseSoon()
			}
		}
		if notify != nil {
			notify(f)
		}
	})
	return nil
}

// TotalCommitments sums the committed (awarded, unreleased) schedule
// entries across every host. Once every workflow has ended and its
// initiator's release has landed it must read zero; the lease horizon is
// the backstop only for hosts the release could not reach.
func (c *Community) TotalCommitments() int {
	total := 0
	for _, id := range c.order {
		total += len(c.hosts[id].Schedule.Commitments())
	}
	return total
}

// TotalHolds sums the outstanding firm-bid reservations across every
// host's schedule manager. After all allocation sessions settle and the
// bid windows pass, it must drain to zero — the commitment-leak check
// the stress harness and test helpers assert.
func (c *Community) TotalHolds() int {
	total := 0
	for _, id := range c.order {
		total += c.hosts[id].Schedule.Holds()
	}
	return total
}

// TotalRuns sums the execution runs every host still tracks; like
// TotalCommitments it must read zero once every workflow has ended.
func (c *Community) TotalRuns() int {
	total := 0
	for _, id := range c.order {
		runs, _ := c.hosts[id].Exec.Residue()
		total += runs
	}
	return total
}

// Execute runs an allocated plan from host id, which must be its
// initiator (plan.Initiator: the routes on its awards return goals and
// failures there; any other host refuses it), waiting for the community to
// finish. The context bounds the wait (use context.WithTimeout for the old
// timeout behavior); on cancellation it returns ctx.Err() alongside a
// partial report.
func (c *Community) Execute(ctx context.Context, id proto.Addr, plan *engine.Plan, triggers map[model.LabelID][]byte) (*engine.Report, error) {
	h, ok := c.hosts[id]
	if !ok {
		return nil, fmt.Errorf("community: no host %q", id)
	}
	return h.Engine.Execute(ctx, plan, triggers)
}

// ResetSchedules clears every host's calendar (commitments and holds).
// The evaluation harness calls it between runs so that the thousands of
// independent measurements do not compete for the same schedule slots. It
// leaves what the hosts remember of their community alone; a harness that
// wants cold runs also resets the initiator's index (evalgen does).
func (c *Community) ResetSchedules() {
	for _, id := range c.order {
		c.hosts[id].Schedule.Clear()
	}
}

// Close shuts the community down.
func (c *Community) Close() error {
	var first error
	for _, id := range c.order {
		if err := c.hosts[id].Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.network != nil {
		if err := c.network.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
