package discovery

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/testutil"
)

var discT0 = time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)

func lbls(ss ...string) []model.LabelID {
	out := make([]model.LabelID, len(ss))
	for i, s := range ss {
		out[i] = model.LabelID(s)
	}
	return out
}

func tsks(ss ...string) []model.TaskID {
	out := make([]model.TaskID, len(ss))
	for i, s := range ss {
		out[i] = model.TaskID(s)
	}
	return out
}

func contains(addrs []proto.Addr, a proto.Addr) bool {
	for _, x := range addrs {
		if x == a {
			return true
		}
	}
	return false
}

// TestAdExpiresExactlyAtTTL pins the TTL boundary: an advertisement is
// fresh strictly before now+TTL and lapsed at exactly now+TTL.
func TestAdExpiresExactlyAtTTL(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	members := []proto.Addr{"h1", "h2"}
	x.ObserveAdvertise("h1", lbls("a"), nil)
	x.ObserveAdvertise("h2", lbls("a"), nil)

	sim.Advance(10*time.Second - time.Nanosecond)
	sel, describe := x.Route(nil, members, lbls("a"), nil)
	if describe || !contains(sel, "h1") || !contains(sel, "h2") {
		t.Fatalf("one nanosecond before TTL: want both fresh, got %v (describe=%v)", sel, describe)
	}

	x.ObserveAdvertise("h2", lbls("a"), nil) // h2 refreshes; h1 does not
	sim.Advance(time.Nanosecond)             // h1's ad is now exactly TTL old
	sel, describe = x.Route(nil, members, lbls("a"), nil)
	if describe {
		t.Fatalf("fresh h2 should still route: asked for descriptions")
	}
	if contains(sel, "h1") {
		t.Fatalf("h1's ad lapsed exactly at TTL but was selected: %v", sel)
	}
	if !contains(sel, "h2") {
		t.Fatalf("refreshed h2 missing from selection %v", sel)
	}
	if st := x.Stats(); st.Excluded == 0 {
		t.Fatalf("expired exclusion not counted: %+v", st)
	}
}

// TestRefreshExtendsTTL pins that a refresh restarts the TTL from the
// refresh instant, not the original advertisement.
func TestRefreshExtendsTTL(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	x.ObserveAdvertise("h1", lbls("a"), nil)
	sim.Advance(8 * time.Second)
	x.ObserveAdvertise("h1", lbls("a"), nil)
	sim.Advance(8 * time.Second) // 16s after the first ad, 8s after refresh
	if sel, _ := x.Route(nil, []proto.Addr{"h1"}, lbls("a"), nil); len(sel) != 1 {
		t.Fatal("refreshed ad lapsed before its extended TTL")
	}
	sim.Advance(2 * time.Second)
	if sel, describe := x.Route(nil, []proto.Addr{"h1"}, lbls("a"), nil); len(sel) != 0 || describe {
		t.Fatalf("ad survived past the refreshed TTL: routed to %v (describe=%v)", sel, describe)
	}
}

// TestCompleteAdReplacesCapabilities pins replace-not-merge semantics
// for complete advertisements: capabilities may shrink.
func TestCompleteAdReplacesCapabilities(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	members := []proto.Addr{"h1", "h2"}
	x.ObserveAdvertise("h1", lbls("a", "b"), nil)
	x.ObserveAdvertise("h2", lbls("a"), nil)
	x.ObserveAdvertise("h1", lbls("c"), nil) // h1 dropped a and b
	sel, describe := x.Route(nil, members, lbls("a"), nil)
	if describe || len(sel) != 1 || sel[0] != "h2" {
		t.Fatalf("h1 no longer advertises a: routed to %v (describe=%v), want [h2]", sel, describe)
	}
}

// TestNeverSeenMemberForcesBroadcast pins what Route reports for a
// candidate with no entry at all (cold start, a member that joined after
// the last sweep): it is asked, and asked to describe itself, and the sweep
// counts as a miss.
func TestNeverSeenMemberForcesBroadcast(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	members := []proto.Addr{"h1", "h2"}

	if sel, describe := x.Route(nil, members, lbls("a"), nil); !describe || len(sel) != 2 {
		t.Fatalf("cold start must ask everyone to describe itself, got %v (describe=%v)", sel, describe)
	}
	x.ObserveAdvertise("h1", lbls("a"), nil)
	if sel, describe := x.Route(nil, members, lbls("a"), nil); !describe || !contains(sel, "h2") {
		t.Fatalf("h2 never seen: must be asked to describe itself, got %v (describe=%v)", sel, describe)
	}
	x.ObserveAdvertise("h2", nil, nil)
	if sel, describe := x.Route(nil, members, lbls("a"), nil); describe || len(sel) != 1 || sel[0] != "h1" {
		t.Fatalf("all members known: routed to %v (describe=%v), want [h1]", sel, describe)
	}
	if sel, describe := x.Route(nil, append(members, "h3"), lbls("a"), nil); !describe || !contains(sel, "h3") {
		t.Fatalf("a member that just joined must be asked to describe itself, got %v (describe=%v)", sel, describe)
	}
	if st := x.Stats(); st.Misses != 3 {
		t.Fatalf("want 3 fallback misses, got %+v", st)
	}
}

// TestEmptySelectionFallsBack: among known members nobody who advertises
// the query is nobody to ask — which the SelectByTasks adapter reports as
// not settled.
func TestEmptySelectionFallsBack(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	members := []proto.Addr{"h1", "h2"}
	x.ObserveAdvertise("h1", lbls("a"), tsks("t1"))
	x.ObserveAdvertise("h2", lbls("b"), nil)
	if sel, describe := x.Route(nil, members, lbls("zzz"), nil); len(sel) != 0 || describe {
		t.Fatalf("no intersection anywhere: routed to %v (describe=%v)", sel, describe)
	}
	if sel, ok := x.SelectByTasks(members, tsks("t9")); ok {
		t.Fatalf("no capable host: must fall back, got %v", sel)
	}
	sel, ok := x.SelectByTasks(members, tsks("t1"))
	if !ok || len(sel) != 1 || sel[0] != "h1" {
		t.Fatalf("task selection: want [h1], got %v (ok=%v)", sel, ok)
	}
}

// TestResetWipes pins crash semantics: a restart loses the index.
func TestResetWipes(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	x.ObserveAdvertise("h1", lbls("a"), nil)
	x.Reset()
	if n := x.Stats().Entries; n != 0 {
		t.Fatalf("reset left %d entries", n)
	}
	if _, describe := x.Route(nil, []proto.Addr{"h1"}, lbls("a"), nil); !describe {
		t.Fatal("a reset index must ask for descriptions again")
	}
}

// TestCrashedHostNeverRoutedPastTTL runs seeded interleavings of
// refreshes, descriptions, and clock advances against a
// community where one host "crashes" (stops refreshing) at a random
// instant and later "restarts" (advertises again). Invariants, checked
// after every step:
//
//   - a selection never includes the crashed host once its last
//     observation is a full TTL old (the stale entry never routes a
//     solicitation past the TTL horizon);
//   - a selection never includes any host whose entry has lapsed;
//   - after the restart advertisement, the host is routable again.
func TestCrashedHostNeverRoutedPastTTL(t *testing.T) {
	const ttl = 10 * time.Second
	members := []proto.Addr{"h0", "h1", "h2", "h3", "h4"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := clock.NewSim(discT0)
		x := New(sim, ttl)
		for _, m := range members {
			x.ObserveAdvertise(m, lbls("a"), tsks("t"))
		}
		victim := members[rng.Intn(len(members))]
		crashAt := sim.Now().Add(time.Duration(1+rng.Intn(20)) * time.Second)
		restartAt := crashAt.Add(time.Duration(int(ttl/time.Second)+rng.Intn(20)) * time.Second)
		lastSeen := make(map[proto.Addr]time.Time)
		for _, m := range members {
			lastSeen[m] = sim.Now()
		}
		restarted := false

		for step := 0; step < 200; step++ {
			sim.Advance(time.Duration(100+rng.Intn(2000)) * time.Millisecond)
			now := sim.Now()
			// Live hosts refresh with jittered cadence; the victim only
			// while not crashed, or after its restart.
			for _, m := range members {
				if rng.Intn(3) != 0 {
					continue
				}
				if m == victim && now.After(crashAt) && now.Before(restartAt) {
					continue
				}
				if m == victim && !now.Before(restartAt) {
					restarted = true
				}
				if rng.Intn(4) == 0 {
					x.Learn(m, &proto.Advertise{Labels: lbls("a"), Tasks: tsks("t")}, nil, nil)
				} else {
					x.ObserveAdvertise(m, lbls("a"), tsks("t"))
				}
				lastSeen[m] = now
			}
			sel, describe := x.Route(nil, members, lbls("a"), nil)
			if describe {
				continue // some pulled entry lapsed: its member is asked again
			}
			if contains(sel, victim) && !now.Before(lastSeen[victim].Add(ttl)) {
				t.Fatalf("seed %d step %d: crashed %q routed %v past its TTL horizon",
					seed, step, victim, now.Sub(lastSeen[victim]))
			}
			for _, m := range sel {
				if !now.Before(lastSeen[m].Add(ttl)) {
					t.Fatalf("seed %d step %d: lapsed %q selected", seed, step, m)
				}
			}
		}
		if !restarted {
			continue // interleaving ended before the restart; fine
		}
		// After restart the victim advertises again and must be routable.
		x.ObserveAdvertise(victim, lbls("a"), tsks("t"))
		if sel, _ := x.Route(nil, members, lbls("a"), nil); !contains(sel, victim) {
			t.Fatalf("seed %d: restarted %q not routable: %v", seed, victim, sel)
		}
	}
}

// TestSelectAllocBounds pins the lookup every sweep of every session
// makes: over 15 known members — the sim_serial community — Route
// allocates the member slice it returns and nothing else, into a buffer an
// earlier round grew not even that, the SelectByTasks adapter no more than
// it, and an empty memory nothing; Recall into a grown buffer allocates
// nothing.
func TestSelectAllocBounds(t *testing.T) {
	x := New(clock.NewSim(discT0), time.Minute)
	members := make([]proto.Addr, 15)
	for i := range members {
		members[i] = proto.Addr(fmt.Sprintf("host%02d", i))
		caps := &proto.Advertise{}
		for j := 0; j < 8; j++ {
			caps.Labels = append(caps.Labels, model.LabelID(fmt.Sprintf("l%02d-%d", i, j)))
			caps.Tasks = append(caps.Tasks, model.TaskID(fmt.Sprintf("t%02d-%d", i, j)))
		}
		if i%2 == 0 {
			x.Learn(members[i], caps, nil, nil)
		} else {
			x.ObserveAdvertise(members[i], caps.Labels, caps.Tasks)
		}
	}
	labels := lbls("l03-2", "l11-7", "nobody")
	tasks := tsks("t00-0", "t14-7", "nobody")
	testutil.AllocBound(t, 1, func() {
		if got, describe := x.Route(nil, members, labels, nil); len(got) != 2 || describe {
			t.Errorf("labels routed to %v (describe=%v)", got, describe)
		}
	})
	testutil.AllocBound(t, 1, func() {
		if got, describe := x.Route(nil, members, nil, tasks); len(got) != 2 || describe {
			t.Errorf("tasks routed to %v (describe=%v)", got, describe)
		}
	})
	var into []proto.Addr
	testutil.AllocBound(t, 0, func() {
		got, describe := x.Route(into[:0], members, labels, nil)
		if len(got) != 2 || describe {
			t.Errorf("labels routed into a buffer to %v (describe=%v)", got, describe)
		}
		into = got
	})
	testutil.AllocBound(t, 1, func() {
		if got, ok := x.SelectByTasks(members, tasks); len(got) != 2 || !ok {
			t.Errorf("SelectByTasks = %v, %v", got, ok)
		}
	})
	// A round answered from memory: two of the routed members hold forty
	// fragments each and one of each consumes the query. Recall into a
	// buffer grown by an earlier round allocates nothing at all.
	routed := []proto.Addr{members[3], members[11]}
	for _, m := range routed {
		caps := &proto.Advertise{}
		var frags []*model.Fragment
		for j := 0; j < 40; j++ {
			l := fmt.Sprintf("l%s-%02d", m[4:], j)
			caps.Labels = append(caps.Labels, model.LabelID(l))
			frags = append(frags, kfrag("know-"+l, l, "out-"+l))
		}
		x.Learn(m, caps, caps.Labels, frags)
	}
	recall := lbls("l03-02", "l11-07", "nobody")
	var buf []*model.Fragment
	testutil.AllocBound(t, 0, func() {
		got, ask, _ := x.Recall(buf[:0], routed, recall)
		if len(got) != 2 || ask != nil {
			t.Errorf("recalled %v, asking %v", got, ask)
		}
		buf = got
	})
	empty := New(clock.NewSim(discT0), time.Minute)
	testutil.AllocBound(t, 0, func() {
		if got, describe := empty.Route(nil, members, labels, nil); len(got) != len(members) || !describe {
			t.Errorf("empty memory routed to %v (describe=%v)", got, describe)
		}
	})
}

// TestLearnSortsForeignSets: the lookup is a binary search, so a set that
// arrives unsorted is sorted once — as a copy, the sender's slice is left
// alone — instead of silently hiding its member from the sweeps it should
// be part of.
func TestLearnSortsForeignSets(t *testing.T) {
	x := New(clock.NewSim(discT0), time.Minute)
	caps := &proto.Advertise{Labels: lbls("z", "b", "m"), Tasks: tsks("t9", "t1")}
	x.Learn("peer", caps, nil, nil)
	x.ObserveAdvertise("pusher", caps.Labels, caps.Tasks)
	if caps.Labels[0] != "z" || caps.Tasks[0] != "t9" {
		t.Errorf("the sender's slices were reordered: %v %v", caps.Labels, caps.Tasks)
	}
	both := []proto.Addr{"peer", "pusher"}
	for _, l := range caps.Labels {
		if got, _ := x.Route(nil, both, []model.LabelID{l}, nil); len(got) != 2 {
			t.Errorf("label %q routes to %v, want both members", l, got)
		}
	}
	for _, task := range caps.Tasks {
		if got, _ := x.Route(nil, both, nil, []model.TaskID{task}); len(got) != 2 {
			t.Errorf("task %q routes to %v, want both members", task, got)
		}
	}
	if got, describe := x.Route(nil, both, lbls("q"), nil); len(got) != 0 || describe {
		t.Errorf("unrelated label routed to %v (describe=%v)", got, describe)
	}
}

// TestRoutingTable walks one member of each kind through the package
// comment's table on the simulated clock: a pulled entry is asked to
// describe itself again once per TTL and not before, a pushed entry past
// its TTL is excluded, and a description never turns an advertiser's
// silence back into mere ignorance.
func TestRoutingTable(t *testing.T) {
	const ttl = 10 * time.Second
	sim := clock.NewSim(discT0)
	x := New(sim, ttl)
	all := []proto.Addr{"pulled", "pushed", "both", "stranger"}
	caps := &proto.Advertise{Labels: lbls("a"), Tasks: tsks("t")}
	x.Learn("pulled", caps, nil, nil)
	x.ObserveAdvertise("pushed", caps.Labels, caps.Tasks)
	x.ObserveAdvertise("both", caps.Labels, caps.Tasks)
	x.Learn("both", caps, nil, nil)

	route := func(labels []model.LabelID) string {
		t.Helper()
		got, describe := x.Route(nil, all, labels, nil)
		return fmt.Sprintf("%v describe=%v", got, describe)
	}
	feasible := func() string {
		t.Helper()
		offered := make([]bool, 2)
		ask := x.Capable(all, tsks("t", "u"), offered)
		return fmt.Sprintf("ask %v t=%v u=%v", ask, offered[0], offered[1])
	}

	// Fresh: the known three are asked iff they intersect; the stranger
	// always, and it alone makes the sweep a describing one.
	if got, want := route(lbls("a")), "[pulled pushed both stranger] describe=true"; got != want {
		t.Errorf("fresh, intersecting: %s, want %s", got, want)
	}
	if got, want := route(lbls("zzz")), "[stranger] describe=true"; got != want {
		t.Errorf("fresh, disjoint: %s, want %s", got, want)
	}
	if got, want := feasible(), "ask [stranger] t=true u=false"; got != want {
		t.Errorf("fresh feasibility: %s, want %s", got, want)
	}
	x.Learn("stranger", &proto.Advertise{}, nil, nil)
	if got, want := route(lbls("zzz")), "[] describe=false"; got != want {
		t.Errorf("everyone known, disjoint: %s, want %s", got, want)
	}

	// One nanosecond before the TTL nothing has changed.
	sim.Advance(ttl - time.Nanosecond)
	if got, want := route(lbls("zzz")), "[] describe=false"; got != want {
		t.Errorf("just before the TTL: %s, want %s", got, want)
	}
	// At the TTL the pulled entries are unknown again — asked whatever
	// the query, and asked to describe themselves — and the pushed ones
	// are presumed dead, the one that also described itself included.
	sim.Advance(time.Nanosecond)
	if got, want := route(lbls("zzz")), "[pulled stranger] describe=true"; got != want {
		t.Errorf("at the TTL: %s, want %s", got, want)
	}
	if got, want := feasible(), "ask [pulled stranger] t=false u=false"; got != want {
		t.Errorf("feasibility at the TTL: %s, want %s", got, want)
	}
	if st := x.Stats(); st.Excluded != 4 {
		t.Errorf("excluded %d members, want 4: two presumed dead, skipped by two lookups", st.Excluded)
	}
	// The re-asked member describes itself and is good for another TTL;
	// an advertiser that speaks again is alive again.
	x.Learn("pulled", caps, nil, nil)
	x.ObserveAdvertise("pushed", caps.Labels, caps.Tasks)
	if got, want := route(lbls("a")), "[pulled pushed stranger] describe=true"; got != want {
		t.Errorf("after re-describing: %s, want %s", got, want)
	}
	if st := x.Stats(); st.Ads != 3 {
		t.Errorf("Ads = %d, want the 3 pushed sets: descriptions are not ads", st.Ads)
	}
}

// TestDoubt pins the second staleness rule: Doubt drops the pulled entries
// — and only those — when one of them is no newer than the mark, and
// reports false when everything pulled arrived after it.
func TestDoubt(t *testing.T) {
	x := New(clock.NewSim(discT0), time.Minute)
	all := []proto.Addr{"old", "pushed", "new"}
	caps := &proto.Advertise{Labels: lbls("a")}
	if x.Doubt(x.Mark()) {
		t.Error("an empty memory was doubted")
	}
	x.Learn("old", caps, nil, nil)
	x.ObserveAdvertise("pushed", caps.Labels, nil)
	mark := x.Mark()
	x.Learn("new", caps, nil, nil)

	fresh := New(clock.NewSim(discT0), time.Minute)
	m0 := fresh.Mark()
	fresh.Learn("new", caps, nil, nil)
	if fresh.Doubt(m0) {
		t.Error("doubted although everything pulled was learned after the mark")
	}
	if got, describe := fresh.Route(nil, []proto.Addr{"new"}, lbls("zzz"), nil); len(got) != 0 || describe {
		t.Errorf("a refused doubt dropped entries: routed to %v (describe=%v)", got, describe)
	}

	if !x.Doubt(mark) {
		t.Fatal("not doubted although \"old\" predates the mark")
	}
	if got, want := fmt.Sprint(x.Route(nil, all, lbls("zzz"), nil)), "[old new] true"; got != want {
		t.Errorf("after doubt routed to %s, want %s: pulled entries unknown, the pushed one kept", got, want)
	}
	if x.Doubt(x.Mark()) {
		t.Error("doubted twice: nothing pulled was left")
	}
}

// kfrag is a one-task fragment in → out named name.
func kfrag(name, in, out string) *model.Fragment {
	return model.MustFragment(name, model.Task{
		ID: model.TaskID(name), Mode: model.Conjunctive, Inputs: lbls(in), Outputs: lbls(out),
	})
}

// recall renders what memory answers for one member and whether the member
// has to be asked.
func recall(x *Index, member proto.Addr, labels ...string) string {
	frags, ask, _ := x.Recall(nil, []proto.Addr{member}, lbls(labels...))
	names := make([]string, len(frags))
	for i, f := range frags {
		names[i] = f.Name
	}
	return fmt.Sprintf("%v ask=%v", names, ask)
}

// TestRecallAnswersOnlyWhatWasAnswered: a member is answered from memory
// exactly when every queried label it consumes has come back from it since
// its entry was stored — with the fragments it returned that consume the
// query, in name order, each once however often it was returned.
func TestRecallAnswersOnlyWhatWasAnswered(t *testing.T) {
	x := New(clock.NewSim(discT0), time.Minute)
	caps := &proto.Advertise{Labels: lbls("a", "b", "c")}
	fa, fab, fb := kfrag("know-1", "a", "m"), kfrag("know-0", "a", "n"), kfrag("know-2", "b", "o")
	fab.Tasks[0].Inputs = lbls("a", "b")

	x.Learn("p", caps, lbls("a"), []*model.Fragment{fab, fa})
	if got, want := recall(x, "p", "a"), "[know-0 know-1] ask=[]"; got != want {
		t.Errorf("a, answered: %s, want %s", got, want)
	}
	if got, want := recall(x, "p", "a", "zzz"), "[know-0 know-1] ask=[]"; got != want {
		t.Errorf("a and a label p does not consume: %s, want %s", got, want)
	}
	if got, want := recall(x, "p", "a", "b"), "[] ask=[p]"; got != want {
		t.Errorf("b was never asked: %s, want %s", got, want)
	}
	// The reply for {a, b} repeats know-0; a reply without a description
	// is merged into the entry that is there.
	x.Learn("p", nil, lbls("a", "b"), []*model.Fragment{fab, fb})
	if got, want := recall(x, "p", "b"), "[know-0 know-2] ask=[]"; got != want {
		t.Errorf("b, answered: %s, want %s", got, want)
	}
	if got, want := recall(x, "p", "b", "a"), "[know-0 know-1 know-2] ask=[]"; got != want {
		t.Errorf("a and b: %s, want %s", got, want)
	}
	if got, want := recall(x, "p", "c"), "[] ask=[p]"; got != want {
		t.Errorf("c was never asked: %s, want %s", got, want)
	}
	// What a member nobody has described says is not kept: there is no
	// entry for it to live and die with. Nor is a full collection's reply.
	x.Learn("mute", nil, lbls("a"), []*model.Fragment{fa})
	if got, want := recall(x, "mute", "a"), "[] ask=[mute]"; got != want {
		t.Errorf("undescribed member: %s, want %s", got, want)
	}
	x.Learn("full", caps, nil, []*model.Fragment{fa, fb})
	if got, want := recall(x, "full", "a"), "[] ask=[full]"; got != want {
		t.Errorf("after a full collection: %s, want %s", got, want)
	}

	// Spliced: at[i] fragments of the recalled ones precede ask[i]'s reply.
	x.Learn("q", &proto.Advertise{Labels: lbls("b")}, lbls("b"), []*model.Fragment{fb})
	frags, ask, at := x.Recall(nil, []proto.Addr{"mute", "p", "full", "q", "stranger"}, lbls("b"))
	if got, want := fmt.Sprint(len(frags), ask, at), "3 [mute full stranger] [0 2 3]"; got != want {
		t.Errorf("spliced recall: %s, want %s", got, want)
	}
}

// TestKnowhowLivesAndDiesWithItsEntry: the three staleness rules cover
// what a member said it knows with no rule of their own. Knowhow is
// answered before the TTL and not after — a lapsed member holds no
// fragments — and not again until it is re-learned; any store starts the entry without it; Doubt forgets
// it, the knowhow of pushed entries included, whose sets stay; Reset wipes
// it.
func TestKnowhowLivesAndDiesWithItsEntry(t *testing.T) {
	const ttl = 10 * time.Second
	sim := clock.NewSim(discT0)
	x := New(sim, ttl)
	caps := &proto.Advertise{Labels: lbls("a")}
	fa := []*model.Fragment{kfrag("know-a", "a", "m")}
	holds := func(member proto.Addr) bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		return x.entries[member].frags != nil
	}
	const answered, asked = "[know-a] ask=[]", "[] ask=[p]"

	// Lapse.
	x.Learn("p", caps, lbls("a"), fa)
	x.ObserveAdvertise("dead", caps.Labels, nil)
	x.Learn("dead", nil, lbls("a"), fa)
	sim.Advance(ttl - time.Nanosecond)
	if got := recall(x, "p", "a"); got != answered {
		t.Errorf("one nanosecond before the TTL: %s, want %s", got, answered)
	}
	sim.Advance(time.Nanosecond)
	if got := recall(x, "p", "a"); got != asked {
		t.Errorf("at the TTL: %s, want %s", got, asked)
	}
	// The lookup that finds an entry lapsed lets its fragments go, whether
	// the member is unknown again or presumed dead.
	if !holds("dead") {
		t.Error("the entry nobody has looked up since it lapsed holds nothing: the test proves nothing")
	}
	if got, describe := x.Route(nil, []proto.Addr{"p", "dead"}, lbls("a"), nil); len(got) != 1 || !describe {
		t.Errorf("at the TTL routed to %v (describe=%v)", got, describe)
	}
	if holds("p") || holds("dead") {
		t.Errorf("lapsed entries still hold fragments: p=%v dead=%v", holds("p"), holds("dead"))
	}
	x.Learn("p", caps, nil, nil) // described again, asked nothing yet
	if got := recall(x, "p", "a"); got != asked {
		t.Errorf("re-described, not re-asked: %s, want %s", got, asked)
	}
	x.Learn("p", nil, lbls("a"), fa)
	if got := recall(x, "p", "a"); got != answered {
		t.Errorf("re-learned: %s, want %s", got, answered)
	}

	// Any store starts the entry with no knowhow.
	x.Learn("p", caps, nil, nil)
	if got := recall(x, "p", "a"); got != asked {
		t.Errorf("after a fresh description: %s, want %s", got, asked)
	}
	x.Learn("p", nil, lbls("a"), fa)
	x.ObserveAdvertise("p", caps.Labels, nil)
	if got := recall(x, "p", "a"); got != asked {
		t.Errorf("after an advertiser push: %s, want %s", got, asked)
	}

	// Doubt: every entry is a pushed one now, so only knowhow can be
	// doubted — when it is no newer than the mark.
	if x.Doubt(x.Mark()) {
		t.Error("doubted pushed entries that hold no knowhow")
	}
	mark := x.Mark()
	x.Learn("p", nil, lbls("a"), fa)
	if x.Doubt(mark) {
		t.Error("doubted although the knowhow was learned after the mark")
	}
	if !x.Doubt(x.Mark()) {
		t.Fatal("not doubted although a pushed entry holds knowhow no newer than the mark")
	}
	if got := recall(x, "p", "a"); got != asked {
		t.Errorf("after doubt: %s, want %s", got, asked)
	}
	if got, describe := x.Route(nil, []proto.Addr{"p"}, lbls("a"), nil); len(got) != 1 || describe {
		t.Errorf("doubt dropped a pushed set: routed to %v (describe=%v)", got, describe)
	}

	// Reset.
	x.Reset()
	if got := recall(x, "p", "a"); got != asked {
		t.Errorf("after reset: %s, want %s", got, asked)
	}
}

// TestSole: with every routed member known, a task exactly one of them
// offers is that member's; a task two offer, or none, is nobody's; and one
// member that is not known — never heard from, or lapsed since the sweep
// was routed — settles nothing.
func TestSole(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	x.ObserveAdvertise("h1", nil, tsks("both", "one"))
	x.Learn("h2", &proto.Advertise{Tasks: tsks("both", "other")}, nil, nil)
	members := []proto.Addr{"h1", "h2"}
	tasks := tsks("one", "both", "none", "other")

	got := x.Sole(members, tasks)
	if want := []proto.Addr{"h1", "", "", "h2"}; !slices.Equal(got, want) {
		t.Errorf("Sole = %q, want %q", got, want)
	}
	if got := x.Sole(members, tsks("both", "none")); got != nil {
		t.Errorf("Sole = %q with no task settled, want nil", got)
	}
	if got := x.Sole([]proto.Addr{"h1", "h2", "h3"}, tasks); got != nil {
		t.Errorf("Sole = %q with h3 never heard from, want nil", got)
	}
	sim.Advance(10 * time.Second)
	if got := x.Sole(members, tasks); got != nil {
		t.Errorf("Sole = %q with both entries lapsed, want nil", got)
	}
}
