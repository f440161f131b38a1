package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"openwf/internal/community"
	"openwf/internal/daemon"
	"openwf/internal/engine"
	"openwf/internal/evalgen"
	"openwf/internal/host"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/trace"
	"openwf/internal/transport/inmem"
)

// hooks are the public configuration points a traced repetition installs
// its recorder through; the zero value leaves the community untraced.
type hooks struct {
	trace    trace.Recorder
	observer engine.Observer
	// entered, when set, is called on entry to every benchmark-supplied
	// service body.
	entered func(workflow string, task model.TaskID, at time.Time)
}

// fixture is one repetition's running system plus what its client loop
// needs to drive and verify it.
type fixture struct {
	comm      *community.Community
	srv       *daemon.Server // nil: clients call the community directly
	initiator proto.Addr
	hosts     int
	tcp       bool
	pool      []spec.Spec
	wantTasks int
	// offers lists, per task, the members that registered its service.
	offers map[model.TaskID]map[proto.Addr]bool
	// resetAll releases a plan by clearing every calendar (the paper's
	// between-runs reset) instead of removing its commitments one by one.
	resetAll bool
	// chain is set when every operation also executes its plan.
	chain *chainData
}

// chainData is what executing and verifying a chain plan needs.
type chainData struct {
	trigger, goal model.LabelID
	payload       []byte // injected with the trigger
	want          []byte // what the goal label must carry
}

func (fx *fixture) close() error {
	if fx.srv != nil {
		return fx.srv.Close()
	}
	return fx.comm.Close()
}

const (
	simTasks       = 100
	simSerialHosts = 15
	simSerialPath  = 8
	contendedHosts = 4
	contendedPath  = 6
	scenarioSeed   = 2009
	poolSize       = 256
	wideHosts      = 32
	wideProviders  = 5
	chainLen       = 6
	chainHosts     = 4
	payloadBytes   = 4096
	discoveryTTL   = 6 * time.Second
	discoveryEvery = 2 * time.Second
)

func hostAddr(i int) proto.Addr { return proto.Addr(fmt.Sprintf("host%02d", i)) }

// newScenario generates the two sim workloads' supergraph. The graph is
// part of the workload, not of the seed: two random graphs differ in how
// many fragments a query returns, which moved allocations per Initiate by
// 6–15 % between seeds while round trips stayed put. The seed places the
// graph's fragments and services on hosts and draws the specification
// pool.
func newScenario() (*evalgen.Scenario, error) {
	return evalgen.Generate(simTasks, rand.New(rand.NewSource(scenarioSeed)))
}

// samplePool draws n satisfiable specifications of the given path length.
func samplePool(sc *evalgen.Scenario, n, length int, rng *rand.Rand) ([]spec.Spec, error) {
	pool := make([]spec.Spec, 0, n)
	for len(pool) < n {
		s, ok := sc.SamplePath(length, rng)
		if !ok {
			return nil, fmt.Errorf("scenario has no path of length %d", length)
		}
		pool = append(pool, s)
	}
	return pool, nil
}

// simSerialInputs are what the seed generates for sim_serial; the core
// probe constructs over the same scenario and pool.
type simSerialInputs struct {
	scenario *evalgen.Scenario
	specs    []community.HostSpec
	pool     []spec.Spec
}

func newSimSerialInputs(seed int64) (*simSerialInputs, error) {
	sc, err := newScenario()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	frags, err := sc.DistributeFragments(simSerialHosts, rng)
	if err != nil {
		return nil, err
	}
	svcs, err := sc.DistributeServices(simSerialHosts, rng)
	if err != nil {
		return nil, err
	}
	pool, err := samplePool(sc, poolSize, simSerialPath, rng)
	if err != nil {
		return nil, err
	}
	specs := make([]community.HostSpec, simSerialHosts)
	for i := range specs {
		specs[i] = community.HostSpec{ID: hostAddr(i), Fragments: frags[i], Services: svcs[i]}
	}
	return &simSerialInputs{scenario: sc, specs: specs, pool: pool}, nil
}

// buildSimSerial is the paper's Figure 4 point: a 100-task supergraph whose
// single-task fragments and sole-provider services are spread over 15
// hosts on the zero-latency in-memory network with marshalling on, the
// evaluation's engine defaults (incremental, feasibility, sequential
// pairwise queries) and a pool of path-length-8 specifications.
func buildSimSerial(seed int64, _ int, hk hooks) (*fixture, error) {
	in, err := newSimSerialInputs(seed)
	if err != nil {
		return nil, err
	}
	offers := make(map[model.TaskID]map[proto.Addr]bool)
	for _, hs := range in.specs {
		noteOffers(offers, hs)
	}
	eng := evalgen.EvalEngineConfig()
	eng.Observer = hk.observer
	comm, err := community.New(community.Options{Seed: seed, Engine: &eng, Trace: hk.trace}, in.specs...)
	if err != nil {
		return nil, err
	}
	return &fixture{
		comm: comm, initiator: in.specs[0].ID, hosts: simSerialHosts,
		pool: in.pool, wantTasks: simSerialPath, offers: offers, resetAll: true,
	}, nil
}

// buildSimContended is the many-sessions-over-few-providers grid: the same
// supergraph over 4 hosts, every service replicated on the 3 that are not
// the initiator, served by a daemon with k workers; parallel queries and
// generous window retries, so contended sessions postpone instead of
// failing.
func buildSimContended(seed int64, k int, hk hooks) (*fixture, error) {
	sc, err := newScenario()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	frags, err := sc.DistributeFragments(contendedHosts, rng)
	if err != nil {
		return nil, err
	}
	pool, err := samplePool(sc, poolSize, contendedPath, rng)
	if err != nil {
		return nil, err
	}
	all := make([]service.Registration, sc.NumTasks())
	for i := range all {
		all[i] = service.Registration{Descriptor: service.Descriptor{Task: sc.Task(i).ID, Specialization: 0.5}}
	}
	offers := make(map[model.TaskID]map[proto.Addr]bool)
	specs := make([]community.HostSpec, contendedHosts)
	for i := range specs {
		specs[i] = community.HostSpec{ID: hostAddr(i), Fragments: frags[i]}
		if i > 0 {
			specs[i].Services = all
		}
		noteOffers(offers, specs[i])
	}
	eng := contendedEngine()
	eng.Observer = hk.observer
	srv, err := daemon.Start(community.Options{Seed: seed, Engine: &eng, Trace: hk.trace},
		specs[0].ID, daemon.Config{Workers: k}, specs...)
	if err != nil {
		return nil, err
	}
	return &fixture{
		comm: srv.Community(), srv: srv, initiator: specs[0].ID, hosts: contendedHosts,
		pool: pool, wantTasks: contendedPath, offers: offers,
	}, nil
}

// contendedEngine is the engine configuration of the two daemon workloads:
// the evaluation defaults with parallel queries, and enough window retries
// and replans that sessions racing for one calendar postpone, not fail.
func contendedEngine() engine.Config {
	eng := evalgen.EvalEngineConfig()
	eng.ParallelQuery = true
	eng.WindowRetries = 8
	eng.MaxReplans = 5
	return eng
}

// chainProblem builds an n-task chain prefix-l00 → … → prefix-lNN, one
// conjunctive task per fragment, and the specification that poses it.
func chainProblem(prefix string, n int) ([]model.Task, []*model.Fragment, spec.Spec, error) {
	label := func(i int) model.LabelID { return model.LabelID(fmt.Sprintf("%s-l%02d", prefix, i)) }
	tasks := make([]model.Task, n)
	frags := make([]*model.Fragment, n)
	for i := range tasks {
		tasks[i] = model.Task{
			ID:      model.TaskID(fmt.Sprintf("%s-t%02d", prefix, i)),
			Mode:    model.Conjunctive,
			Inputs:  []model.LabelID{label(i)},
			Outputs: []model.LabelID{label(i + 1)},
		}
		f, err := model.NewFragment(fmt.Sprintf("know-%s%02d", prefix, i), tasks[i])
		if err != nil {
			return nil, nil, spec.Spec{}, err
		}
		frags[i] = f
	}
	s, err := spec.New([]model.LabelID{label(0)}, []model.LabelID{label(n)})
	return tasks, frags, s, err
}

// buildTCPWide is the only workload on real sockets: 32 hosts on loopback
// TCP, host 0 holding a 6-task chain's knowhow, 5 seed-chosen members
// offering every chain service and 26 members whose labels and tasks are
// disjoint from the problem. Discovery runs with a short TTL and refresh,
// so index writes (refresh, expiry) happen beside routing reads inside
// every slice; set-up warms the initiator's index and has every member
// advertise once, which dials the full mesh before anything is timed.
func buildTCPWide(seed int64, k int, hk hooks) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	tasks, frags, problem, err := chainProblem("d", chainLen)
	if err != nil {
		return nil, err
	}
	regs := make([]service.Registration, len(tasks))
	for i, t := range tasks {
		regs[i] = service.Registration{Descriptor: service.Descriptor{Task: t.ID, Specialization: 0.5}}
	}
	provider := make(map[int]bool, wideProviders)
	for _, i := range rng.Perm(wideHosts - 1)[:wideProviders] {
		provider[i+1] = true
	}
	offers := make(map[model.TaskID]map[proto.Addr]bool)
	specs := make([]community.HostSpec, wideHosts)
	for i := range specs {
		hs := community.HostSpec{ID: hostAddr(i)}
		switch {
		case i == 0:
			hs.Fragments = frags
		case provider[i]:
			hs.Services = regs
		default:
			jt := model.Task{
				ID:      model.TaskID(fmt.Sprintf("junk-t%02d", i)),
				Mode:    model.Conjunctive,
				Inputs:  []model.LabelID{model.LabelID(fmt.Sprintf("junk-l%02d", i))},
				Outputs: []model.LabelID{model.LabelID(fmt.Sprintf("junk-m%02d", i))},
			}
			jf, err := model.NewFragment(fmt.Sprintf("junk-know-%02d", i), jt)
			if err != nil {
				return nil, err
			}
			hs.Fragments = []*model.Fragment{jf}
			hs.Services = []service.Registration{{Descriptor: service.Descriptor{Task: jt.ID, Specialization: 0.5}}}
		}
		specs[i] = hs
		noteOffers(offers, hs)
	}
	eng := contendedEngine()
	eng.Observer = hk.observer
	srv, err := daemon.Start(community.Options{
		Transport: community.TCP, Seed: seed, Engine: &eng, Trace: hk.trace,
		Discovery: &host.DiscoveryConfig{TTL: discoveryTTL, RefreshEvery: discoveryEvery},
	}, specs[0].ID, daemon.Config{Workers: k}, specs...)
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		comm: srv.Community(), srv: srv, initiator: specs[0].ID, hosts: wideHosts, tcp: true,
		pool: []spec.Spec{problem}, wantTasks: chainLen, offers: offers,
	}
	if err := fx.warmDiscovery(); err != nil {
		_ = fx.close()
		return nil, err
	}
	return fx, nil
}

// warmDiscovery pulls every member's advertisement into the initiator's
// index, then has every member push one advertisement to every other and
// waits until all have landed, so the TCP mesh is dialled before the
// first timed operation.
func (fx *fixture) warmDiscovery() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fx.comm.WarmDiscovery(ctx, fx.initiator); err != nil {
		return err
	}
	before := fx.comm.DiscoveryStats().Ads
	for _, id := range fx.comm.Members() {
		h, _ := fx.comm.Host(id)
		h.AdvertiseSoon()
	}
	// Each member observes its own advertisement and one from every other.
	want := before + int64(fx.hosts*fx.hosts)
	for fx.comm.DiscoveryStats().Ads < want {
		select {
		case <-ctx.Done():
			return fmt.Errorf("discovery warm-up: %d of %d advertisements after 30s", fx.comm.DiscoveryStats().Ads-before, want-before)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// buildChain is the paper's empirical shape end to end: 4 hosts, a 6-task
// chain whose knowhow is spread over all four by the seed, every service
// offered by the 3 hosts that are not the initiator, short start delay and
// windows so that execution follows allocation at once. Each service body
// is the benchmark's own: it emits a 4 KiB payload derived from its input,
// so the goal label's bytes prove every hop carried its data intact.
func buildChain(seed int64, link inmem.LinkModel, hk hooks) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	tasks, frags, problem, err := chainProblem("c", chainLen)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, payloadBytes)
	rng.Read(payload)
	want := append([]byte(nil), payload...)
	regs := make([]service.Registration, len(tasks))
	for i, t := range tasks {
		mask := make([]byte, payloadBytes)
		rng.Read(mask)
		for j := range want {
			want[j] ^= mask[j]
		}
		regs[i] = service.Registration{
			Descriptor: service.Descriptor{Task: t.ID, Specialization: 0.5},
			Fn:         xorService(t, mask, hk.entered),
		}
	}
	offers := make(map[model.TaskID]map[proto.Addr]bool)
	specs := make([]community.HostSpec, chainHosts)
	for i := range specs {
		specs[i] = community.HostSpec{ID: hostAddr(i)}
		if i > 0 {
			specs[i].Services = regs
		}
	}
	for i, at := range rng.Perm(len(frags)) {
		specs[i%chainHosts].Fragments = append(specs[i%chainHosts].Fragments, frags[at])
	}
	for _, hs := range specs {
		noteOffers(offers, hs)
	}
	eng := engine.DefaultConfig()
	eng.ParallelQuery = true
	eng.StartDelay = 5 * time.Millisecond
	eng.TaskWindow = time.Millisecond
	eng.Observer = hk.observer
	comm, err := community.New(community.Options{LinkModel: link, Seed: seed, Engine: &eng, Trace: hk.trace}, specs...)
	if err != nil {
		return nil, err
	}
	return &fixture{
		comm: comm, initiator: specs[0].ID, hosts: chainHosts,
		pool: []spec.Spec{problem}, wantTasks: chainLen, offers: offers,
		chain: &chainData{
			trigger: tasks[0].Inputs[0], goal: tasks[chainLen-1].Outputs[0],
			payload: payload, want: want,
		},
	}, nil
}

// xorService returns the body of one chain service: its single output is
// its single input XORed with the task's mask.
func xorService(t model.Task, mask []byte, entered func(string, model.TaskID, time.Time)) service.Func {
	in, out := t.Inputs[0], t.Outputs[0]
	return func(inv service.Invocation) (service.Outputs, error) {
		if entered != nil {
			entered(inv.Workflow, inv.Task, time.Now())
		}
		data := inv.Inputs[in]
		if len(data) != len(mask) {
			return nil, fmt.Errorf("input %q carries %d bytes, want %d", in, len(data), len(mask))
		}
		res := make([]byte, len(mask))
		for i := range res {
			res[i] = data[i] ^ mask[i]
		}
		return service.Outputs{out: res}, nil
	}
}

func noteOffers(offers map[model.TaskID]map[proto.Addr]bool, hs community.HostSpec) {
	for _, reg := range hs.Services {
		t := reg.Descriptor.Task
		if offers[t] == nil {
			offers[t] = make(map[proto.Addr]bool)
		}
		offers[t][hs.ID] = true
	}
}
