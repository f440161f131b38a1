package community

// Concurrent sessions over the advertiser: the index may only change WHO
// is asked during a sweep, never WHAT plan comes out, whether the
// advertiser filled it, left it cold, or missed a member. Every test
// builds the same seeded layout with and without the advertiser on a
// frozen virtual clock and compares canonical plan bytes. (The broadcast
// differential proper is TestDirectoryRoutingMatchesBroadcastPlans.)

import (
	"fmt"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/discovery"
	"openwf/internal/engine"
	"openwf/internal/host"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/testutil"
	"openwf/internal/transport"
)

// discLayout describes one discovery differential configuration: host00
// initiates and carries all session knowhow, hosts 1..sessions are each
// one session's dedicated service provider, and every remaining host is
// a "junk" member whose fragments and services use labels and tasks
// disjoint from every session — the population the index should learn
// to skip.
type discLayout struct {
	hosts    int
	sessions int
	chain    int
	seed     int64
}

// buildDiscoveryGrid materializes a layout; indexed selects whether the
// community runs the advertiser.
func buildDiscoveryGrid(t *testing.T, l discLayout, sim *clock.Sim, indexed bool) *Community {
	t.Helper()
	if l.hosts-1 < l.sessions {
		t.Fatalf("layout needs one provider host per session: hosts=%d sessions=%d", l.hosts, l.sessions)
	}
	var frags []*model.Fragment
	for k := 0; k < l.sessions; k++ {
		for i := 0; i < l.chain; i++ {
			frags = append(frags, frag(t, fmt.Sprintf("know-%s", stressTask(k, i)),
				ctask(string(stressTask(k, i)),
					[]model.LabelID{stressLabel(k, i)},
					[]model.LabelID{stressLabel(k, i+1)})))
		}
	}
	specs := make([]HostSpec, l.hosts)
	for h := 0; h < l.hosts; h++ {
		hs := HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
		switch {
		case h == 0:
			hs.Fragments = frags
		case h <= l.sessions: // dedicated provider for session h-1
			var regs []service.Registration
			for i := 0; i < l.chain; i++ {
				regs = append(regs, svc(string(stressTask(h-1, i)), 0))
			}
			hs.Services = regs
		default: // junk member: capabilities disjoint from every session
			hs.Fragments = []*model.Fragment{
				frag(t, fmt.Sprintf("junk-know-%02d", h),
					ctask(fmt.Sprintf("junk-t%02d", h),
						lbl(fmt.Sprintf("junk-l%02d", h)),
						lbl(fmt.Sprintf("junk-m%02d", h)))),
			}
			hs.Services = []service.Registration{svc(fmt.Sprintf("junk-t%02d", h), 0)}
		}
		specs[h] = hs
	}

	cfg := engine.DefaultConfig()
	cfg.TaskWindow = time.Second
	cfg.StartDelay = time.Duration(l.chain+2) * time.Second
	cfg.WindowRetries = l.sessions + 2
	cfg.CallTimeout = time.Hour // virtual: all members answer, nothing times out

	opts := Options{Clock: sim, Engine: &cfg, Seed: l.seed}
	if indexed {
		opts.Discovery = &host.DiscoveryConfig{}
	}
	c, err := New(opts, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gridRun is what one differential round leaves behind: the canonical
// plans, the traffic and index counters of the Initiate phase alone, and
// what that phase would have cost had every sweep been a broadcast.
type gridRun struct {
	plans     string
	traffic   transport.Stats
	stats     discovery.Stats
	broadcast int64
}

// runDiscoveryGrid executes one differential round: build, optionally
// warm the initiator's index, initiate every session concurrently on the
// frozen clock, and settle.
func runDiscoveryGrid(t *testing.T, l discLayout, indexed, warm bool) gridRun {
	t.Helper()
	testutil.CheckGoroutines(t)
	sim := clock.NewSim(stressT0)
	c := buildDiscoveryGrid(t, l, sim, indexed)
	t.Cleanup(func() { _ = c.Close() })

	ctx := ctxTimeout(t, 60*time.Second)
	if warm {
		if err := c.WarmDiscovery(ctx, "host00"); err != nil {
			t.Fatalf("WarmDiscovery: %v", err)
		}
	}
	c.Network().ResetCounters()
	before := c.DiscoveryStats()

	plans, err := c.InitiateAll(ctx, "host00", stressSpecs(l.sessions, l.chain))
	if err != nil {
		t.Fatalf("InitiateAll: %v", err)
	}
	run := gridRun{traffic: c.TransportStats(), stats: c.DiscoveryStats()}
	run.stats.Hits -= before.Hits
	run.stats.Misses -= before.Misses
	run.stats.Ads -= before.Ads
	total := 0
	for i, p := range plans {
		if p == nil {
			t.Fatalf("plan %d missing", i)
		}
		if p.Workflow.NumTasks() != l.chain || len(p.Allocations) != l.chain || p.Replans != 0 {
			t.Fatalf("plan %d incomplete: %d tasks, %d allocated (want %d), %d replans",
				i, p.Workflow.NumTasks(), len(p.Allocations), l.chain, p.Replans)
		}
		total += l.chain
		// Each collection round, the feasibility check and the call for
		// bids reach every host; every task is awarded once. (Sessions
		// have a provider each, so no window is ever retried.)
		run.broadcast += int64((p.Construction.CollectionRounds+2)*l.hosts + l.chain)
	}
	settleStress(t, c, sim, total)
	assertCalendarInvariants(t, c, plans)
	run.plans = canonicalPlans(plans)
	return run
}

// TestWarmedIndexAnswersFeasibilityLocally: on a warmed advertiser
// community every member is known before the first session, so concurrent
// sessions send fragment queries to the one host that holds knowhow, calls
// for bids to their own provider, and no feasibility query to anyone —
// and plan what the same community plans without the advertiser.
func TestWarmedIndexAnswersFeasibilityLocally(t *testing.T) {
	for _, l := range []discLayout{
		{hosts: 6, sessions: 2, chain: 3, seed: 7},
		{hosts: 10, sessions: 4, chain: 3, seed: 11},
	} {
		l := l
		t.Run(fmt.Sprintf("hosts=%d/sessions=%d", l.hosts, l.sessions), func(t *testing.T) {
			warm := runDiscoveryGrid(t, l, true, true)
			plain := runDiscoveryGrid(t, l, false, false)
			if warm.plans != plain.plans {
				t.Fatalf("plans diverge:\n--- advertiser, warmed ---\n%s--- no advertiser ---\n%s", warm.plans, plain.plans)
			}
			// Per session: one fragment query to host00 per chain task (the
			// round that finds nobody consuming the goal sends nothing) and
			// one call for bids to the session's provider, which — the only
			// member offering the chain — commits it as it bids (10 and 20
			// while an Award for the whole chain followed, 14 and 28 while it
			// was one award per task).
			if want := int64(l.sessions * (l.chain + 1)); warm.traffic.Calls != want {
				t.Errorf("%d round trips, want %d: every sweep routed from memory, feasibility answered locally", warm.traffic.Calls, want)
			}
			if warm.stats.Misses != 0 || warm.stats.Hits == 0 {
				t.Errorf("a warmed index asked for descriptions: %+v", warm.stats)
			}
		})
	}
}

// TestWarmDiscoveryObservesEachSetOnce: one pull sweep over N hosts leaves
// the caller's index with N pushed sets counted — its own and one per
// reply — not one per reply twice over.
func TestWarmDiscoveryObservesEachSetOnce(t *testing.T) {
	l := discLayout{hosts: 7, sessions: 2, chain: 3, seed: 5}
	c := buildDiscoveryGrid(t, l, clock.NewSim(stressT0), true)
	t.Cleanup(func() { _ = c.Close() })
	if err := c.WarmDiscovery(ctxTimeout(t, 30*time.Second), "host00"); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Host("host00")
	if st := h.Discovery().Stats(); st.Ads != int64(l.hosts) || st.Entries != l.hosts {
		t.Errorf("after one WarmDiscovery over %d hosts the caller counts %d ads in %d entries, want %d in %d",
			l.hosts, st.Ads, st.Entries, l.hosts, l.hosts)
	}
}

// TestColdStartFallsBackToBroadcast pins the cold half of the routing
// contract: with the advertiser on but the index never warmed, the first
// sweeps ask everyone to describe themselves (misses, on the counter the
// daemon exports via internal/metrics), the plans are identical to a
// community without the advertiser, and neither costs more round trips
// than broadcasting every sweep would. The two sessions run concurrently
// and share what either learns, so how far below the broadcast they land
// depends on which got where first.
func TestColdStartFallsBackToBroadcast(t *testing.T) {
	l := discLayout{hosts: 8, sessions: 2, chain: 3, seed: 13}
	cold := runDiscoveryGrid(t, l, true, false)
	plain := runDiscoveryGrid(t, l, false, false)
	if cold.plans != plain.plans {
		t.Fatalf("cold-start plans diverge from a community without the advertiser:\n--- cold ---\n%s--- none ---\n%s",
			cold.plans, plain.plans)
	}
	for name, run := range map[string]gridRun{"cold advertiser": cold, "no advertiser": plain} {
		if run.stats.Misses == 0 {
			t.Errorf("%s: a cold index should have asked for descriptions: %+v", name, run.stats)
		}
		if run.traffic.Calls > run.broadcast {
			t.Errorf("%s: %d round trips, broadcasting every sweep costs %d", name, run.traffic.Calls, run.broadcast)
		}
	}
}

// TestForcedIndexMissFallsBack pins the never-seen-member rule at the
// community level: a junk member that joins the initiator's view after
// the index was warmed is asked by the next sweep — and asked to describe
// itself — and the plan is still constructed, identical to the plan of a
// community without the advertiser.
func TestForcedIndexMissFallsBack(t *testing.T) {
	l := discLayout{hosts: 8, sessions: 2, chain: 3, seed: 17}

	testutil.CheckGoroutines(t)
	sim := clock.NewSim(stressT0)
	c := buildDiscoveryGrid(t, l, sim, true)
	t.Cleanup(func() { _ = c.Close() })
	ctx := ctxTimeout(t, 60*time.Second)
	h, _ := c.Host("host00")
	h.SetMembers(c.Members()[:7]) // host07 has not joined yet
	if err := c.WarmDiscovery(ctx, "host00"); err != nil {
		t.Fatalf("WarmDiscovery: %v", err)
	}
	h.SetMembers(c.Members())

	plans, err := c.InitiateAll(ctx, "host00", stressSpecs(l.sessions, l.chain))
	if err != nil {
		t.Fatalf("InitiateAll: %v", err)
	}
	total := 0
	for i, p := range plans {
		if p == nil || len(p.Allocations) != l.chain {
			t.Fatalf("plan %d incomplete after forced miss", i)
		}
		total += l.chain
	}
	if stats := h.Discovery().Stats(); stats.Misses == 0 {
		t.Errorf("the late joiner should have been asked to describe itself: %+v", stats)
	}
	got := canonicalPlans(plans)
	settleStress(t, c, sim, total)

	want := runDiscoveryGrid(t, l, false, false).plans
	if got != want {
		t.Fatalf("forced-miss plans diverge:\n--- forced miss ---\n%s--- no advertiser ---\n%s",
			got, want)
	}
}
