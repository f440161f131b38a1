package community_test

// The differential guarantee behind the session directory (DESIGN.md §16),
// beside the capability index's in discovery_test.go: what members tell a
// session about themselves may only change WHO is asked in later sweeps,
// never WHAT plan comes out. An external test package because the seeded
// communities come from evalgen, which itself imports community.

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

// sweepKinds are the requests the directory routes.
var sweepKinds = []string{"fragment-query", "feasibility-query", "call-for-bids-batch"}

// strippingMessenger is the initiator's own host with two additions: it
// counts the requests sent to each member, and it removes the capability
// set from the fragment replies of the members strip selects — which makes
// those members exactly what the engine saw before descriptions existed.
// Strip everyone and the engine broadcasts every sweep; no switch in
// product code is involved.
type strippingMessenger struct {
	*host.Host
	strip func(proto.Addr) bool

	mu    sync.Mutex
	calls map[proto.Addr]map[string]int
}

func (m *strippingMessenger) Call(ctx context.Context, to proto.Addr, wf string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	m.mu.Lock()
	if m.calls[to] == nil {
		m.calls[to] = make(map[string]int)
	}
	m.calls[to][body.Kind()]++
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
	for _, kinds := range m.calls {
		for _, kind := range sweepKinds {
			n += kinds[kind]
		}
	}
	return n
}

// diffCommunity builds the seed's community on a frozen virtual clock: a
// 24-task evalgen supergraph, knowhow spread evenly over 6–10 hosts, each
// task offered by one to three random hosts — and about one task in eight
// by nobody, so feasibility filtering and §5.1 have work to do. Equal
// seeds build equal communities. It returns the initiator's engine,
// rebuilt over a strippingMessenger, and three specifications to plan in
// turn (later sessions meet the earlier ones' commitments).
func diffCommunity(t *testing.T, seed int64, parallel bool, strip func(proto.Addr) bool) (*community.Community, *engine.Manager, *strippingMessenger, []spec.Spec) {
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
	c, err := community.New(community.Options{Clock: clock.NewSim(diffT0), Engine: &cfg, Seed: seed}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	h, _ := c.Host("host00")
	msgr := &strippingMessenger{Host: h, strip: strip, calls: make(map[proto.Addr]map[string]int)}
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
func runDiff(t *testing.T, seed int64, parallel bool, strip func(proto.Addr) bool) (string, *strippingMessenger) {
	t.Helper()
	c, eng, msgr, problems := diffCommunity(t, seed, parallel, strip)
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

// TestDirectoryRoutingMatchesBroadcastPlans: over 32 seeded communities,
// with sequential and with parallel queries, a session whose members
// describe themselves ends exactly like the same session behind a
// messenger that strips every description — today's broadcast — and like
// one where a single member's descriptions are stripped. Along the way:
// the broadcast really contacts every member in every sweep, routing
// never costs more requests and in aggregate saves some, and the one
// member that never describes itself sees exactly the traffic a broadcast
// would send it.
func TestDirectoryRoutingMatchesBroadcastPlans(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			routedTotal, broadcastTotal, planned := 0, 0, 0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				const mute = proto.Addr("host03")
				routed, routedTraffic := runDiff(t, seed, parallel, func(proto.Addr) bool { return false })
				broadcast, broadcastTraffic := runDiff(t, seed, parallel, func(proto.Addr) bool { return true })
				oneMute, muteTraffic := runDiff(t, seed, parallel, func(a proto.Addr) bool { return a == mute })
				if routed != broadcast {
					t.Fatalf("seed %d: routed and broadcast sessions diverge:\n--- routed ---\n%s--- broadcast ---\n%s", seed, routed, broadcast)
				}
				if oneMute != broadcast {
					t.Fatalf("seed %d: a single undescribed member changes the outcome:\n--- one mute ---\n%s--- broadcast ---\n%s", seed, oneMute, broadcast)
				}
				planned += strings.Count(routed, "wf=")

				for _, kind := range sweepKinds {
					want := broadcastTraffic.calls["host00"][kind]
					for member, kinds := range broadcastTraffic.calls {
						if kinds[kind] != want {
							t.Errorf("seed %d: broadcast sent %s %d %s, host00 %d — every sweep must reach every member",
								seed, member, kinds[kind], kind, want)
						}
					}
					if got := muteTraffic.calls[mute][kind]; got != want {
						t.Errorf("seed %d: the undescribed %s was sent %d %s, a broadcast sends %d", seed, mute, got, kind, want)
					}
				}
				if r, b := routedTraffic.total(), broadcastTraffic.total(); r > b {
					t.Errorf("seed %d: routing cost %d requests, broadcast %d", seed, r, b)
				}
				routedTotal += routedTraffic.total()
				broadcastTotal += broadcastTraffic.total()
			}
			t.Logf("%d seeds, %d sessions planned: %d routed requests vs %d broadcast", seeds, planned, routedTotal, broadcastTotal)
			if planned == 0 {
				t.Error("no session produced a plan: the layouts exercise nothing")
			}
			if routedTotal >= broadcastTotal {
				t.Errorf("routing saved nothing: %d requests vs %d broadcast", routedTotal, broadcastTotal)
			}
		})
	}
}
