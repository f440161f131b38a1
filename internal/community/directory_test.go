package community_test

// The differential guarantee behind a host's memory of its community
// (DESIGN.md §13): what members tell a host about themselves — asked by a
// sweep or pushed by their advertiser — may only change WHO is asked in
// later sweeps, never WHAT plan comes out. An external test package because
// the seeded communities come from evalgen, which itself imports community.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/community"
	"openwf/internal/engine"
	"openwf/internal/evalgen"
	"openwf/internal/host"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
)

var diffT0 = time.Date(2026, 6, 13, 9, 0, 0, 0, time.UTC)

// sweepKinds are the requests the index routes.
var sweepKinds = []string{"fragment-query", "feasibility-query", "call-for-bids-batch"}

// strippingMessenger is the initiator's own host — index included, so an
// engine built over it remembers what the host's advertiser traffic taught
// it — with two additions: it counts the requests sent to each member, and
// it removes the capability set from the fragment replies of the members
// strip selects, which makes those members exactly what the engine saw
// before descriptions existed. Strip everyone and the engine broadcasts
// every sweep; no switch in product code is involved.
type strippingMessenger struct {
	*host.Host
	strip func(proto.Addr) bool

	mu    sync.Mutex
	calls map[proto.Addr]map[string]int
	// asked holds, per member, the labels fragment queries have named to
	// it; repeats lists the queries that named none it had not been asked
	// about before — whose answer the host already had.
	asked   map[proto.Addr]map[model.LabelID]bool
	repeats []string
}

func newStrippingMessenger(h *host.Host, md mode) *strippingMessenger {
	return &strippingMessenger{Host: h, strip: md.strip,
		calls: make(map[proto.Addr]map[string]int), asked: make(map[proto.Addr]map[model.LabelID]bool)}
}

func (m *strippingMessenger) Call(ctx context.Context, to proto.Addr, wf string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	m.mu.Lock()
	if m.calls[to] == nil {
		m.calls[to] = make(map[string]int)
	}
	m.calls[to][body.Kind()]++
	if q, ok := body.(proto.FragmentQuery); ok {
		if m.asked[to] == nil {
			m.asked[to] = make(map[model.LabelID]bool)
		}
		news := false
		for _, l := range q.Labels {
			news = news || !m.asked[to][l]
			m.asked[to][l] = true
		}
		if !news {
			m.repeats = append(m.repeats, fmt.Sprintf("%s %v", to, q.Labels))
		}
	}
	m.mu.Unlock()
	reply, err := m.Host.Call(ctx, to, wf, body, timeout)
	if fr, ok := reply.(proto.FragmentReply); ok && m.strip(to) {
		fr.Capabilities = nil
		reply = fr
	}
	return reply, err
}

// total sums the routed requests sent to every member.
func (m *strippingMessenger) total() int {
	n := 0
	for _, kind := range sweepKinds {
		n += m.sent(kind)
	}
	return n
}

// sent sums the requests of one kind sent to every member.
func (m *strippingMessenger) sent(kind string) int {
	n := 0
	for _, kinds := range m.calls {
		n += kinds[kind]
	}
	return n
}

// mode is one way the initiator comes to know — or not to know — its
// community.
type mode struct {
	name  string
	strip func(proto.Addr) bool
	// warm runs the advertiser and pulls every member's set into the
	// initiator's index before the first session.
	warm bool
}

const muteMember = proto.Addr("host03")

var (
	describing = mode{name: "describing", strip: func(proto.Addr) bool { return false }}
	broadcast  = mode{name: "broadcast", strip: func(proto.Addr) bool { return true }}
	oneMute    = mode{name: "one mute member", strip: func(a proto.Addr) bool { return a == muteMember }}
	warmed     = mode{name: "advertiser warmed", strip: describing.strip, warm: true}
)

// diffCommunity builds the seed's community on a frozen virtual clock: a
// 24-task evalgen supergraph, knowhow spread evenly over 6–10 hosts, each
// task offered by one to three random hosts — and about one task in eight
// by nobody, so feasibility filtering and §5.1 have work to do. Equal
// seeds build equal communities. It returns the initiator's engine,
// rebuilt over a strippingMessenger, and three specifications to plan in
// turn (later sessions meet the earlier ones' commitments).
func diffCommunity(t *testing.T, seed int64, parallel bool, md mode) (*community.Community, *engine.Manager, *strippingMessenger, []spec.Spec) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc, err := evalgen.Generate(24, rng)
	if err != nil {
		t.Fatal(err)
	}
	hosts := 6 + int(seed%5)
	frags, err := sc.DistributeFragments(hosts, rng)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]community.HostSpec, hosts)
	for h := range specs {
		specs[h] = community.HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h)), Fragments: frags[h]}
	}
	for i := 0; i < sc.NumTasks(); i++ {
		if rng.Intn(8) == 0 {
			continue
		}
		for _, h := range rng.Perm(hosts)[:1+rng.Intn(3)] {
			specs[h].Services = append(specs[h].Services, service.Registration{
				Descriptor: service.Descriptor{Task: sc.Task(i).ID, Specialization: 0.5},
			})
		}
	}
	var problems []spec.Spec
	for len(problems) < 3 {
		if s, ok := sc.SamplePath(2+rng.Intn(3), rng); ok {
			problems = append(problems, s)
		}
	}

	cfg := evalgen.EvalEngineConfig()
	cfg.ParallelQuery = parallel
	cfg.CallTimeout = time.Hour // virtual: every member answers, nothing times out
	opts := community.Options{Clock: clock.NewSim(diffT0), Engine: &cfg, Seed: seed}
	if md.warm {
		// On the frozen clock the advertiser never ticks: the pull below is
		// all the index hears, and nothing it holds lapses.
		opts.Discovery = &host.DiscoveryConfig{}
	}
	c, err := community.New(opts, specs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if md.warm {
		if err := c.WarmDiscovery(context.Background(), "host00"); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := c.Host("host00")
	msgr := newStrippingMessenger(h, md)
	return c, engine.NewManager(msgr, cfg), msgr, problems
}

// outcome renders everything a session decided: the workflow, who was
// awarded what for which window, how many replans it took — or its error.
func outcome(plan *engine.Plan, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wf=%s replans=%d rounds=%d\n%v\n", plan.WorkflowID, plan.Replans, plan.Construction.CollectionRounds, plan.Workflow)
	tasks := make([]string, 0, len(plan.Allocations))
	for task := range plan.Allocations {
		tasks = append(tasks, string(task))
	}
	sort.Strings(tasks)
	for _, task := range tasks {
		meta := plan.Metas[model.TaskID(task)]
		fmt.Fprintf(&b, "  %s -> %s [%v, %v)\n", task, plan.Allocations[model.TaskID(task)],
			meta.Start.Sub(diffT0), meta.End.Sub(diffT0))
	}
	return b.String()
}

// runDiff plans the seed's three problems in turn and returns the
// outcomes plus the messenger that counted the traffic.
func runDiff(t *testing.T, seed int64, parallel bool, md mode) (string, *strippingMessenger) {
	t.Helper()
	c, eng, msgr, problems := diffCommunity(t, seed, parallel, md)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var b strings.Builder
	for _, s := range problems {
		b.WriteString(outcome(eng.Initiate(ctx, s)))
		// Losing bidders are released by one-way Cancels. Let them land
		// before the next session solicits, or whether a loser's slot is
		// free again by then depends on goroutine scheduling — and a
		// broadcast, which collects more losing bids, loses that race
		// differently from a routed sweep.
		for deadline := time.Now().Add(5 * time.Second); c.TotalHolds() != 0; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: %d holds never released", seed, c.TotalHolds())
			}
		}
	}
	return b.String(), msgr
}

// TestDirectoryRoutingMatchesBroadcastPlans is the one differential: over
// 32 seeded communities, with sequential and with parallel queries, three
// sessions in turn on one initiator end exactly alike — workflows,
// allocations, windows, replan counts, errors — whether its members
// describe themselves when asked, have every description stripped (the
// broadcast the protocol used to be), include one member that never
// describes itself, or were all pulled into the index by the advertiser
// before the first session. Along the way: the broadcast really contacts
// every member in every sweep; a host that knows its members sends no
// feasibility query at all; routing never costs more requests than the
// broadcast and in aggregate far fewer — except that a problem that fails
// from memory is run once more, asking everyone, before the failure is
// believed; the member that never describes itself sees exactly the
// traffic a broadcast would send it, with the same exception; and a host
// that knows its members sends none of them a query it has the answer to —
// every fragment query of all three sessions, replans included, names a
// label its member was not asked about before — again unless a failure made
// it doubt.
func TestDirectoryRoutingMatchesBroadcastPlans(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			routedTotal, warmedTotal, broadcastTotal, planned, failed := 0, 0, 0, 0, 0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				want, bc := runDiff(t, seed, parallel, broadcast)
				traffic := make(map[string]*strippingMessenger)
				for _, md := range []mode{describing, oneMute, warmed} {
					got, msgr := runDiff(t, seed, parallel, md)
					if got != want {
						t.Fatalf("seed %d: %s and broadcast sessions diverge:\n--- %s ---\n%s--- broadcast ---\n%s", seed, md.name, md.name, got, want)
					}
					traffic[md.name] = msgr
				}
				planned += strings.Count(want, "wf=")
				// A failure is re-asked only where it may have come from
				// memory: pulled sets older than the failing session.
				reasked := strings.Contains(want, "error:")
				if reasked {
					failed++
				}

				for _, kind := range sweepKinds {
					all := bc.calls["host00"][kind]
					for member, kinds := range bc.calls {
						if kinds[kind] != all {
							t.Errorf("seed %d: broadcast sent %s %d %s, host00 %d — every sweep must reach every member",
								seed, member, kinds[kind], kind, all)
						}
					}
					if got := traffic[oneMute.name].calls[muteMember][kind]; got < all || (got > all && !reasked) {
						t.Errorf("seed %d: the undescribed %s was sent %d %s, a broadcast sends %d", seed, muteMember, got, kind, all)
					}
				}
				for _, md := range []mode{describing, warmed} {
					if n := traffic[md.name].sent("feasibility-query"); n != 0 {
						t.Errorf("seed %d, %s: %d feasibility queries, want none: every member was known by then", seed, md.name, n)
					}
					if again := traffic[md.name].repeats; len(again) != 0 && !reasked {
						t.Errorf("seed %d, %s: queries that named only labels their member had answered: %v", seed, md.name, again)
					}
				}
				r, w, b := traffic[describing.name].total(), traffic[warmed.name].total(), bc.total()
				if w > b || (r > b && !reasked) || r > 2*b {
					t.Errorf("seed %d: %d requests routed by descriptions, %d by advertisements, %d broadcast", seed, r, w, b)
				}
				routedTotal += r
				warmedTotal += w
				broadcastTotal += b
			}
			t.Logf("%d seeds, %d sessions planned, %d seeds with a failing session: %d requests routed by descriptions, %d by advertisements, %d broadcast",
				seeds, planned, failed, routedTotal, warmedTotal, broadcastTotal)
			if planned == 0 {
				t.Error("no session produced a plan: the layouts exercise nothing")
			}
			if routedTotal >= broadcastTotal || warmedTotal > routedTotal {
				t.Errorf("routing saved nothing: %d / %d requests vs %d broadcast", routedTotal, warmedTotal, broadcastTotal)
			}
		})
	}
}

// TestColdConcurrentSessionsMatchSerialBroadcast: eight sessions start at
// once on a host that knows nobody, so they fill and read one index
// between them (the race detector watches) — and plan what eight sessions
// one after the other plan behind a messenger that strips every
// description. Each session has a provider of its own, so no plan depends
// on which session reached a calendar first; and every session is also
// triggered by the first label of a side chain that leads to nobody's goal,
// so all eight ask the same members about the same labels, and learn and
// recall the same entries' knowhow at once.
func TestColdConcurrentSessionsMatchSerialBroadcast(t *testing.T) {
	const sessions, chain = 8, 3
	build := func(md mode) (*engine.Manager, []spec.Spec) {
		specs := make([]community.HostSpec, sessions+3)
		for h := range specs {
			specs[h].ID = proto.Addr(fmt.Sprintf("host%02d", h))
		}
		var problems []spec.Spec
		for i := 0; i < chain; i++ {
			task := model.Task{ID: model.TaskID(fmt.Sprintf("side-t%d", i)), Mode: model.Conjunctive,
				Inputs: []model.LabelID{model.LabelID(fmt.Sprintf("side-l%d", i))}, Outputs: []model.LabelID{model.LabelID(fmt.Sprintf("side-l%d", i+1))}}
			f, err := model.NewFragment("know-"+string(task.ID), task)
			if err != nil {
				t.Fatal(err)
			}
			specs[i].Fragments = append(specs[i].Fragments, f)
		}
		for k := 0; k < sessions; k++ {
			label := func(i int) []model.LabelID { return []model.LabelID{model.LabelID(fmt.Sprintf("s%d-l%d", k, i))} }
			for i := 0; i < chain; i++ {
				task := model.Task{ID: model.TaskID(fmt.Sprintf("s%d-t%d", k, i)), Mode: model.Conjunctive, Inputs: label(i), Outputs: label(i + 1)}
				f, err := model.NewFragment("know-"+string(task.ID), task)
				if err != nil {
					t.Fatal(err)
				}
				// Knowhow is spread over three hosts, services sit on the
				// session's own provider.
				specs[i].Fragments = append(specs[i].Fragments, f)
				specs[3+k].Services = append(specs[3+k].Services, service.Registration{
					Descriptor: service.Descriptor{Task: task.ID, Specialization: 0.5},
				})
			}
			problems = append(problems, spec.Must(append(label(0), "side-l0"), label(chain)))
		}
		cfg := evalgen.EvalEngineConfig()
		cfg.CallTimeout = time.Hour // virtual: every member answers, nothing times out
		c, err := community.New(community.Options{Clock: clock.NewSim(diffT0), Engine: &cfg}, specs...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		h, _ := c.Host("host00")
		return engine.NewManager(newStrippingMessenger(h, md), cfg), problems
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	eng, problems := build(broadcast)
	var want strings.Builder
	for _, s := range problems {
		want.WriteString(outcome(eng.Initiate(ctx, s)))
	}
	if n := strings.Count(want.String(), "wf="); n != sessions {
		t.Fatalf("the serial broadcast planned %d of %d sessions:\n%s", n, sessions, want.String())
	}

	eng, problems = build(describing)
	plans, err := eng.InitiateBatch(ctx, problems)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, plan := range plans {
		got.WriteString(outcome(plan, nil))
	}
	if got.String() != want.String() {
		t.Fatalf("concurrent cold sessions diverge from the serial broadcast:\n--- concurrent ---\n%s--- serial broadcast ---\n%s", got.String(), want.String())
	}
}
