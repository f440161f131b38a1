package community

// The seeded chaos harness: M hosts × K concurrent Initiates allocated on
// a frozen virtual clock (exactly the stress harness), then *executed*
// while a seeded fault schedule kills and restarts provider hosts and
// splits the community with a partition/heal pair at randomized
// virtual-clock times. A background driver advances the Sim clock in
// small steps so execution windows open, lease refreshers tick, call
// timeouts trip, and scripted faults fire in virtual time.
//
// The invariants chaos is accountable to (the tentpole's acceptance bar):
//
//  1. every workflow either completes or cleanly aborts — no Execute
//     hangs, no error returns, every abort records its failure;
//  2. zero orphaned commitments, leaked holds and leftover runs at
//     completion — once every session has returned and its release has
//     landed — on every host no fault cut off from the initiator; the
//     hosts a crash or the partition did cut off, whose releases and
//     compensations were lost with the fault, drain by lease expiry once
//     the clock passes the commitment-lease horizon, not by luck;
//  3. the goroutine count returns to baseline after the community closes.
//
// The initiator host00 is never killed (a dead initiator's sessions are
// the *participants'* lease-sweep test, covered at the host layer; here
// the initiator must survive to drive repair).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/host"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/testutil"
	"openwf/internal/trace"
	"openwf/internal/transport/inmem"
)

var chaosT0 = time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)

// chaosLayout describes one chaos round.
type chaosLayout struct {
	hosts    int // community size (host00 initiates, never dies)
	sessions int // concurrent Initiates
	chain    int // tasks per session's workflow
	kills    int // provider hosts crashed mid-flight
	restarts int // how many of the killed hosts come back
	// partition additionally splits the community mid-flight and heals
	// it a few virtual seconds later.
	partition bool
	// indexed enables capability-index discovery (warmed before
	// allocation) and asserts, from the message trace, that the
	// initiator sends zero solicitations to any crashed-for-good host
	// once its advertisement has lapsed past the TTL horizon.
	indexed bool
	// ttl overrides the advertisement TTL for indexed rounds (default
	// chaosDiscoveryTTL).
	ttl  time.Duration
	seed int64
}

// chaosDiscoveryTTL is short enough that a crash victim's advertisement
// lapses while the fault schedule is still in flight.
const chaosDiscoveryTTL = 4 * time.Second

// buildChaos materializes a layout: host00 carries every fragment and
// initiates; every provider host registers every service (shared mode),
// so any survivor can take over any task during repair. rec, when
// non-nil, records every message for post-run assertions.
func buildChaos(t *testing.T, l chaosLayout, sim *clock.Sim, rec trace.Recorder) *Community {
	t.Helper()
	var frags []*model.Fragment
	for k := 0; k < l.sessions; k++ {
		for i := 0; i < l.chain; i++ {
			frags = append(frags, frag(t, fmt.Sprintf("know-%s", stressTask(k, i)),
				ctask(string(stressTask(k, i)),
					[]model.LabelID{stressLabel(k, i)},
					[]model.LabelID{stressLabel(k, i+1)})))
		}
	}
	var regs []service.Registration
	for k := 0; k < l.sessions; k++ {
		for i := 0; i < l.chain; i++ {
			regs = append(regs, svc(string(stressTask(k, i)), 10*time.Millisecond))
		}
	}
	specs := make([]HostSpec, l.hosts)
	for h := 0; h < l.hosts; h++ {
		specs[h] = HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
		if h > 0 {
			specs[h].Services = regs
		}
	}
	specs[0].Fragments = frags

	cfg := engine.DefaultConfig()
	// Window bands as in the stress harness: concurrent sessions retrying
	// with postponed windows land in disjoint bands.
	cfg.TaskWindow = time.Second
	cfg.StartDelay = time.Duration(l.chain+2) * time.Second
	cfg.WindowRetries = l.sessions + 2
	// Unlike the stress harness (allocation only, nothing may time out),
	// chaos needs timeouts to trip: a call to a crashed host must fail in
	// bounded virtual time so the refresher can declare it dead.
	cfg.CallTimeout = 10 * time.Second
	cfg.LeaseRefreshInterval = 2 * time.Second

	opts := Options{
		Clock:  sim,
		Engine: &cfg,
		Seed:   l.seed,
		Trace:  rec,
	}
	if l.indexed {
		opts.Discovery = &host.DiscoveryConfig{TTL: l.ttl, RefreshEvery: l.ttl / 4}
	}
	c, err := New(opts, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// chaosFaults derives the seeded fault schedule: kills (with restarts for
// the first l.restarts victims) at randomized virtual times once
// execution is underway, plus one partition/heal pair. host00 is never a
// victim and always lands in the partition group that keeps the
// initiator working.
func chaosFaults(l chaosLayout, members []proto.Addr, rng *rand.Rand) []inmem.Fault {
	providers := append([]proto.Addr(nil), members[1:]...)
	rng.Shuffle(len(providers), func(i, j int) {
		providers[i], providers[j] = providers[j], providers[i]
	})
	var faults []inmem.Fault
	for i := 0; i < l.kills && i < len(providers); i++ {
		at := 3*time.Second + time.Duration(rng.Intn(9000))*time.Millisecond
		faults = append(faults, inmem.Fault{At: at, Kind: inmem.FaultCrash, Host: providers[i]})
		if i < l.restarts {
			back := at + 5*time.Second + time.Duration(rng.Intn(5000))*time.Millisecond
			faults = append(faults, inmem.Fault{At: back, Kind: inmem.FaultRestart, Host: providers[i]})
		}
	}
	if l.partition {
		// Split the surviving providers roughly in half; the initiator's
		// side keeps enough capacity to repair around the other side.
		rest := append([]proto.Addr(nil), providers[l.kills:]...)
		cut := (len(rest) + 1) / 2
		groupA := append([]proto.Addr{members[0]}, rest[:cut]...)
		groupB := append([]proto.Addr(nil), rest[cut:]...)
		for i := 0; i < l.kills && i < len(providers); i++ {
			groupB = append(groupB, providers[i]) // dark anyway; keep groups exhaustive
		}
		at := 4*time.Second + time.Duration(rng.Intn(6000))*time.Millisecond
		heal := at + 3*time.Second + time.Duration(rng.Intn(3000))*time.Millisecond
		faults = append(faults,
			inmem.Fault{At: at, Kind: inmem.FaultPartition, Groups: [][]proto.Addr{groupA, groupB}},
			inmem.Fault{At: heal, Kind: inmem.FaultHeal},
		)
	}
	return faults
}

// runChaos executes one chaos round and asserts the invariants.
func runChaos(t *testing.T, l chaosLayout) {
	t.Helper()
	testutil.CheckGoroutines(t)
	if l.indexed && l.ttl == 0 {
		l.ttl = chaosDiscoveryTTL
	}
	sim := clock.NewSim(chaosT0)
	var buf *trace.Buffer
	var rec trace.Recorder
	if l.indexed {
		buf = trace.NewBuffer(0)
		rec = buf
	}
	c := buildChaos(t, l, sim, rec)
	t.Cleanup(func() { _ = c.Close() })
	rng := rand.New(rand.NewSource(l.seed))

	// Phase 1 — allocation on the frozen clock, fault-free (the stress
	// harness owns allocation-time contention; chaos targets execution).
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if l.indexed {
		if err := c.WarmDiscovery(ctx, "host00"); err != nil {
			t.Fatalf("WarmDiscovery: %v", err)
		}
	}
	plans, err := c.InitiateAll(ctx, "host00", stressSpecs(l.sessions, l.chain))
	if err != nil {
		t.Fatalf("InitiateAll: %v", err)
	}
	for i, p := range plans {
		if p == nil || len(p.Allocations) != p.Workflow.NumTasks() {
			t.Fatalf("plan %d not fully allocated: %+v", i, p)
		}
	}

	// Phase 2 — arm the seeded fault schedule and execute everything
	// concurrently. Faults fire from virtual +3s; the clock is frozen
	// until the driver starts, so every session distributes its segments
	// and injects its triggers on an intact community first.
	faults := chaosFaults(l, c.Members(), rng)
	if err := c.ScheduleFaults(faults, nil); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		idx    int
		report *engine.Report
		err    error
	}
	results := make(chan outcome, len(plans))
	for i, p := range plans {
		i, p := i, p
		go func() {
			ectx, ecancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer ecancel()
			rep, err := c.Execute(ectx, "host00", p,
				map[model.LabelID][]byte{stressLabel(i, 0): []byte("go")})
			results <- outcome{i, rep, err}
		}()
	}
	time.Sleep(100 * time.Millisecond) // wall time: segment distribution at virtual T0

	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sim.Advance(200 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()

	completed, aborted := 0, 0
	for range plans {
		o := <-results
		if o.err != nil {
			t.Errorf("session %d: Execute returned error %v (neither completion nor clean abort); report %+v",
				o.idx, o.err, o.report)
			continue
		}
		if o.report.Completed {
			completed++
			if len(o.report.Goals) != 1 {
				t.Errorf("session %d completed with %d goals, want 1", o.idx, len(o.report.Goals))
			}
		} else {
			aborted++
			if len(o.report.Failures) == 0 {
				t.Errorf("session %d aborted without recording a failure: %+v", o.idx, o.report)
			}
		}
	}
	close(stop)
	driver.Wait()
	t.Logf("chaos seed %d: %d completed, %d aborted of %d sessions",
		l.seed, completed, aborted, len(plans))
	if completed == 0 {
		t.Error("no session completed under chaos")
	}

	// Phase 3 — at completion. Every session has returned, and each return
	// released its participants. A host no fault ever cut off from the
	// initiator heard every release and every compensation: once the links
	// drain and the last bid windows close — seconds of virtual time, the
	// leases have minutes to run — it holds nothing.
	cutOff := make(map[proto.Addr]bool)
	for _, f := range faults {
		switch f.Kind {
		case inmem.FaultCrash:
			cutOff[f.Host] = true
		case inmem.FaultPartition:
			for _, id := range f.Groups[1] {
				cutOff[id] = true
			}
		}
	}
	for i := 0; leftovers(c, cutOff) != ""; i++ {
		if i == 20 {
			t.Fatalf("residue at completion on hosts no fault cut off:%s", leftovers(c, cutOff))
		}
		sim.Advance(500 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}

	// Phase 4 — the backstop. Advance far past the commitment-lease
	// horizon: stale leases on partitioned or restarted executors (whose
	// releases and Cancels were lost with the faults) must expire and
	// sweep, returning every slot to the pool. Anything left is an orphan.
	deadline := time.Now().Add(15 * time.Second)
	for c.TotalCommitments() != 0 || c.TotalHolds() != 0 {
		if time.Now().After(deadline) {
			for _, id := range c.Members() {
				h, _ := c.Host(id)
				if cs := h.Schedule.Commitments(); len(cs) > 0 {
					t.Logf("host %s orphaned commitments: %+v", id, cs)
				}
				if n := h.Schedule.Holds(); n > 0 {
					t.Logf("host %s leaked holds: %+v", id, h.Schedule.HeldTasks())
				}
			}
			t.Fatalf("orphans after lease horizon: commitments=%d holds=%d",
				c.TotalCommitments(), c.TotalHolds())
		}
		sim.Advance(time.Minute)
		time.Sleep(2 * time.Millisecond)
	}

	if l.indexed {
		assertNoSolicitationPastTTL(t, buf, faults, l.ttl)
	}
}

// solicitationKinds are the message kinds the capability index routes:
// construction queries and auction solicitations. Lease refreshes and
// execution traffic go to committed plan participants regardless of
// advertisement state and are exempt.
var solicitationKinds = map[string]bool{
	"fragment-query":      true,
	"feasibility-query":   true,
	"call-for-bids-batch": true,
}

// assertNoSolicitationPastTTL scans the message trace for solicitations
// the initiator sent to a crashed-for-good host after that host's
// advertisement lapsed: the stale index entry must stop routing within
// one TTL of the crash. Restarted victims re-advertise and are exempt.
func assertNoSolicitationPastTTL(t *testing.T, buf *trace.Buffer, faults []inmem.Fault, ttl time.Duration) {
	t.Helper()
	crashedAt := make(map[proto.Addr]time.Time)
	for _, f := range faults {
		switch f.Kind {
		case inmem.FaultCrash:
			crashedAt[f.Host] = chaosT0.Add(f.At)
		case inmem.FaultRestart:
			delete(crashedAt, f.Host)
		}
	}
	stale, scanned := 0, 0
	for _, ev := range buf.Events() {
		if ev.Dir != trace.Send || ev.Host != "host00" || !solicitationKinds[ev.Kind] {
			continue
		}
		scanned++
		at, dead := crashedAt[ev.Peer]
		if !dead {
			continue
		}
		if horizon := at.Add(ttl); !ev.At.Before(horizon) {
			stale++
			t.Errorf("solicitation %s to crashed %s at +%v, %v past its TTL horizon",
				ev.Kind, ev.Peer, ev.At.Sub(chaosT0), ev.At.Sub(horizon))
		}
	}
	if scanned == 0 {
		t.Errorf("no solicitation from host00 in %d traced events: the check saw nothing", buf.Total())
	} else if stale == 0 {
		t.Logf("no solicitation reached a lapsed host (%d of %d events were solicitations)", scanned, buf.Total())
	}
}

// TestChaosCrashRepairPartition is the seeded chaos matrix the CI job
// runs under -race: k ∈ {1,2,3} crashes (some restarting) plus one
// partition/heal pair, across ≥8 hosts × 8 concurrent Initiates.
func TestChaosCrashRepairPartition(t *testing.T) {
	grid := []chaosLayout{
		{hosts: 8, sessions: 8, chain: 3, kills: 1, restarts: 1, partition: true, seed: 11},
		{hosts: 8, sessions: 8, chain: 3, kills: 2, restarts: 1, partition: true, seed: 22},
		{hosts: 9, sessions: 8, chain: 3, kills: 3, restarts: 2, partition: true, seed: 33},
	}
	if testing.Short() {
		grid = grid[:1]
	}
	for _, l := range grid {
		l := l
		t.Run(fmt.Sprintf("hosts=%d/kills=%d/seed=%d", l.hosts, l.kills, l.seed), func(t *testing.T) {
			runChaos(t, l)
		})
	}
}

// TestChaosKillsOnly exercises pure crash/restart churn without a
// partition: every session must still settle and the calendars drain.
func TestChaosKillsOnly(t *testing.T) {
	runChaos(t, chaosLayout{hosts: 8, sessions: 8, chain: 3, kills: 2, restarts: 2, seed: 7})
}

// TestChaosIndexedDiscovery runs the chaos matrix with capability-index
// routing enabled: providers are killed (one restarting) and the
// community partitioned mid-round while the initiator routes every
// solicitation through its warmed index. On top of the standard chaos
// invariants (complete-or-clean-abort, drained calendars, no leaked
// goroutines), the message trace must show zero solicitations from the
// initiator to any crashed-for-good host after its advertisement lapsed
// — the index's TTL doubles as a failure detector for routing.
func TestChaosIndexedDiscovery(t *testing.T) {
	grid := []chaosLayout{
		{hosts: 8, sessions: 8, chain: 3, kills: 2, restarts: 1, partition: true, indexed: true, seed: 44},
		{hosts: 9, sessions: 8, chain: 3, kills: 3, restarts: 1, indexed: true, seed: 55},
	}
	if testing.Short() {
		grid = grid[:1]
	}
	for _, l := range grid {
		l := l
		t.Run(fmt.Sprintf("hosts=%d/kills=%d/seed=%d", l.hosts, l.kills, l.seed), func(t *testing.T) {
			runChaos(t, l)
		})
	}
}
