// Package discovery is a host's one memory of its community: what each
// member has said about itself — the labels its fragments consume, the
// tasks it offers services for — and what it has said it knows — the
// fragments it returned for the labels it was asked about. The first says
// which members are worth sending a sweep, the second which of them need no
// message at all. The paper's initiator "communicates with each member of
// the community in turn", "drawing from the community only the fragments
// that we need"; a host that remembers the answers does the first once per
// member per TTL, the second once per member and label per TTL, and
// constructs every other workflow from what it was told.
//
// A set arrives pulled — the member described itself in a fragment reply
// because a sweep asked it to (proto.FragmentQuery.Describe) — or pushed by
// the member's advertiser (proto.Advertise, AdvertiseAck), which repeats it
// several times per TTL. The way decides what silence means, and one table
// routes every sweep (Route, Capable), member by member:
//
//	no entry        unknown        asked, and asked to describe itself
//	fresh           known          asked iff its set intersects the query;
//	                               a fragment query, only if it names a
//	                               label the member consumes and has not
//	                               answered since the entry was stored —
//	                               otherwise the entry answers (Recall)
//	pulled, lapsed  unknown again  asked, and asked to describe itself
//	pushed, lapsed  presumed dead  not asked
//
// The same sets say when a solicitation has one possible bidder (Sole): when
// exactly one of the routed members, every one of them known, offers each
// task, the session sends no call for bids and awards from memory.
//
// Memory outlives the session that filled it. Three rules keep it from
// costing a plan, and they are the whole policy (DESIGN.md §13):
//
//   - Lapse, above: a capability gained is seen within one TTL; one lost
//     is caught where it always was, by the member declining the bid.
//   - No failure is reported from memory (Mark, Doubt): a session about to
//     fail after routing on entries older than itself drops the pulled
//     ones and runs once more, asking everyone.
//   - Repair starts from doubt: the community just changed under a running
//     workflow, so plan repair drops the pulled entries before it asks.
//
// Knowhow lives and dies with its entry, so the same three rules cover it
// and it has none of its own: any store — a fresh description, every
// advertiser push — starts the entry with no knowhow; a lapsed entry
// answers nothing and lets its fragments go; Doubt forgets the knowhow of
// every entry, the pushed ones included (the advertiser vouches for the
// sets, nobody vouches for the fragments); Reset wipes it. A fragment a
// member gains is therefore seen within one TTL, or at once by the session
// that would otherwise fail for want of it; one a member removed or
// replaced is believed until its entry is next stored or doubted, and the
// auction settles whether anyone can still perform its tasks. Knowledge
// outlives reachability: a remembered member that cannot be reached still
// contributes its knowhow and simply does not bid.
//
// The index runs on the injected clock, so every rule is testable on the
// simulated clock without wall time.
package discovery

import (
	"slices"
	"strings"
	"sync"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
)

// DefaultTTL is how long a capability set stays fresh without a refresh.
const DefaultTTL = 30 * time.Second

// entry is what one member last said about itself. The sets are sorted and
// looked up by binary search.
type entry struct {
	labels []model.LabelID
	tasks  []model.TaskID
	// expires is when the entry lapses; it is fresh strictly before.
	expires time.Time
	// pushed records that the member's advertiser has spoken: its silence
	// then means death, not ignorance (see the package comment). A later
	// description refreshes the entry but never takes the mark away.
	pushed bool
	// seq places the entry in the order sets arrived (Mark).
	seq uint64
	// What the member has said it knows since the entry was stored — none
	// (answered nil) until it answers a query for a label it consumes:
	// answered[i] records that a fragment query for labels[i] came back,
	// frags are the fragments those replies carried, sorted by name and
	// shared read-only with every session that recalls them, since places
	// the first answer in the order seq does. Knowhow lives and dies with
	// its entry.
	answered []bool
	frags    []*model.Fragment
	since    uint64
}

// forget drops the entry's knowhow and keeps its sets.
func (e *entry) forget() { e.answered, e.frags = nil, nil }

// answers reports whether the member has answered every one of labels it
// consumes — whether a query for them would return only what frags holds.
func (e *entry) answers(labels []model.LabelID) bool {
	for _, l := range labels {
		if i, consumed := slices.BinarySearch(e.labels, l); consumed && (e.answered == nil || !e.answered[i]) {
			return false
		}
	}
	return true
}

// record merges one fragment reply to a query for labels into the entry; a
// reply about labels the member consumes none of leaves it as it was.
func (e *entry) record(labels []model.LabelID, frags []*model.Fragment) {
	for _, l := range labels {
		if i, consumed := slices.BinarySearch(e.labels, l); consumed {
			if e.answered == nil {
				e.answered = make([]bool, len(e.labels))
			}
			e.answered[i] = true
		}
	}
	if e.answered == nil {
		return
	}
	for _, f := range frags {
		i, found := slices.BinarySearchFunc(e.frags, f.Name, func(g *model.Fragment, name string) int {
			return strings.Compare(g.Name, name)
		})
		if found {
			e.frags[i] = f
		} else {
			e.frags = slices.Insert(e.frags, i, f)
		}
	}
}

// standing is what the index knows about a member at some instant.
type standing int

const (
	unknown standing = iota // never heard from, or pulled and lapsed
	known                   // fresh
	dead                    // pushed and lapsed
)

// Index is one host's memory of its community. It is safe for concurrent
// use: sessions route and learn while the host's dispatcher records
// advertisements.
type Index struct {
	clk clock.Clock
	ttl time.Duration

	mu sync.Mutex
	// entries is allocated with the first entry: a host that never
	// initiates and hears no advertiser carries none.
	entries map[proto.Addr]entry
	seq     uint64
	stats   Stats
}

// Stats is a snapshot of the index counters.
type Stats struct {
	// Hits counts sweeps routed from memory alone.
	Hits int64
	// Misses counts sweeps that also had to ask some member to describe
	// itself (an empty memory, a member never heard from, a lapsed pull).
	Misses int64
	// Excluded counts members skipped as presumed dead.
	Excluded int64
	// Ads counts pushed capability sets observed (Advertise bodies and
	// AdvertiseAck replies); descriptions pulled by a sweep are not ads.
	Ads int64
	// Entries is the current number of members with an entry.
	Entries int
}

// New returns an empty index on the given clock. ttl <= 0 selects
// DefaultTTL.
func New(clk clock.Clock, ttl time.Duration) *Index {
	if clk == nil {
		clk = clock.New()
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Index{clk: clk, ttl: ttl}
}

// ObserveAdvertise records a capability set the member's advertiser
// pushed: it replaces what was known (capabilities may shrink) and restarts
// the TTL. The index keeps the slices — sorted ones as they are, unsorted
// ones as a sorted copy — so the caller must not modify them afterwards.
func (x *Index) ObserveAdvertise(from proto.Addr, labels []model.LabelID, tasks []model.TaskID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.stats.Ads++
	x.storeLocked(from, labels, tasks, true)
}

// Learn records one fragment reply. A description of the member (caps; nil
// when the reply carried none) replaces its set and restarts its TTL like
// ObserveAdvertise. The answer — frags came back for a query for labels —
// is merged into the member's fresh entry, the one just stored included, so
// the next query for labels it has answered is a Recall; a full collection
// (no labels) and a member without a fresh entry record nothing. The index
// keeps the fragments and shares them read-only.
func (x *Index) Learn(from proto.Addr, caps *proto.Advertise, labels []model.LabelID, frags []*model.Fragment) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if caps != nil {
		x.storeLocked(from, caps.Labels, caps.Tasks, false)
	}
	e, st := x.standingLocked(from, x.clk.Now())
	if st != known || len(labels) == 0 {
		return
	}
	first := e.answered == nil
	if e.record(labels, frags); e.answered == nil {
		return
	}
	if first {
		x.seq++
		e.since = x.seq
	}
	x.entries[from] = e
}

func (x *Index) storeLocked(from proto.Addr, labels []model.LabelID, tasks []model.TaskID, pushed bool) {
	if x.entries == nil {
		x.entries = make(map[proto.Addr]entry)
	}
	x.seq++
	x.entries[from] = entry{
		labels:  sorted(labels),
		tasks:   sorted(tasks),
		expires: x.clk.Now().Add(x.ttl),
		pushed:  pushed || x.entries[from].pushed,
		seq:     x.seq,
	}
}

// sorted returns set in ascending order. Members send sorted sets; one from
// a foreign peer that is not costs a copy and a sort here, never a wrongly
// skipped member later.
func sorted[S ~string](set []S) []S {
	if slices.IsSorted(set) {
		return set
	}
	set = slices.Clone(set)
	slices.Sort(set)
	return set
}

// standingLocked classifies a member at now. An entry it finds lapsed lets
// its fragments go there and then: a lapsed member holds none.
func (x *Index) standingLocked(addr proto.Addr, now time.Time) (entry, standing) {
	e, ok := x.entries[addr]
	switch {
	case !ok:
		return e, unknown
	case now.Before(e.expires):
		return e, known
	case e.answered != nil:
		e.forget()
		x.entries[addr] = e
	}
	if e.pushed {
		return e, dead
	}
	return e, unknown
}

// Route appends to dst, in candidate order, the members worth sending a
// sweep for labels (a fragment query) or tasks (a call for bids), by the
// package comment's table; describe reports whether any of them is
// unknown, i.e. whether the sweep should ask for descriptions. It
// allocates only when dst has no room for every candidate — a caller that
// routes round after round passes the last round's members — and with an
// empty memory not at all: it returns candidates itself, and describe, so a
// caller that reuses the members for its next round keeps only those of a
// round that asked nobody to describe itself.
func (x *Index) Route(dst, candidates []proto.Addr, labels []model.LabelID, tasks []model.TaskID) (members []proto.Addr, describe bool) {
	now := x.clk.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.entries) == 0 {
		x.stats.Misses++
		return candidates, true
	}
	members = slices.Grow(dst, len(candidates))
	for _, c := range candidates {
		switch e, st := x.standingLocked(c, now); st {
		case unknown:
			describe = true
			members = append(members, c)
		case known:
			if intersects(e.labels, labels) || intersects(e.tasks, tasks) {
				members = append(members, c)
			}
		case dead:
			x.stats.Excluded++
		}
	}
	if describe {
		x.stats.Misses++
	} else {
		x.stats.Hits++
	}
	return members, describe
}

// Recall answers a fragment query for labels from memory where it can. Of
// members — the routed ones, in order — each that is known and has answered
// every one of labels it consumes contributes what it returned then: its
// fragments that consume one of labels, in name order, exactly what it
// would send now. They are appended to dst, which the caller reuses round
// after round. The others are returned as ask; at[i] is how many of frags
// precede ask[i]'s reply, so frags spliced with the replies is what asking
// every member would have gathered. dst grows at most once while memory
// holds no more fragments than when it grew: an empty dst is given room for
// every fragment memory holds, so a round answered from memory into a
// grown dst allocates nothing.
func (x *Index) Recall(dst []*model.Fragment, members []proto.Addr, labels []model.LabelID) (frags []*model.Fragment, ask []proto.Addr, at []int) {
	frags = dst
	now := x.clk.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	if cap(frags) == 0 {
		n := 0
		for _, e := range x.entries {
			n += len(e.frags)
		}
		frags = make([]*model.Fragment, 0, n)
	}
	for _, c := range members {
		e, st := x.standingLocked(c, now)
		if st != known || !e.answers(labels) {
			ask, at = append(ask, c), append(at, len(frags))
			continue
		}
		for _, f := range e.frags {
			if f.ConsumesAny(labels) {
				frags = append(frags, f)
			}
		}
	}
	return frags, ask, at
}

// Capable answers a feasibility query from memory: it sets offered[i] for
// each of tasks[i] a known candidate offers — no message at all; offered
// is as long as tasks — and returns the unknown candidates, which still
// have to be asked.
func (x *Index) Capable(candidates []proto.Addr, tasks []model.TaskID, offered []bool) (ask []proto.Addr) {
	now := x.clk.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, c := range candidates {
		switch e, st := x.standingLocked(c, now); st {
		case unknown:
			ask = append(ask, c)
		case known:
			for i, t := range tasks {
				if _, ok := slices.BinarySearch(e.tasks, t); ok {
					offered[i] = true
				}
			}
		case dead:
			x.stats.Excluded++
		}
	}
	if len(ask) > 0 {
		x.stats.Misses++
	} else {
		x.stats.Hits++
	}
	return ask
}

// Sole names, task by task, the member a call for bids could only be won
// by: with every one of members known — the routed ones of a sweep that
// asked nobody to describe itself — a task exactly one of them offers has
// one possible bidder, and sole[i] is that member; it is "" for a task
// several offer or none does. With no "", the engine awards every task
// without an auction, to whom the auction would have chosen, on the same
// memory that chose whom it would have asked. sole is nil when some member
// is not known (its entry lapsed since the sweep was routed) or no task is
// settled.
func (x *Index) Sole(members []proto.Addr, tasks []model.TaskID) (sole []proto.Addr) {
	now := x.clk.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	offered := make([]int, len(tasks))
	winners := make([]proto.Addr, len(tasks))
	for _, c := range members {
		e, st := x.standingLocked(c, now)
		if st != known {
			return nil
		}
		for i, t := range tasks {
			if _, ok := slices.BinarySearch(e.tasks, t); ok {
				offered[i]++
				winners[i] = c
			}
		}
	}
	for i, n := range offered {
		if n == 1 {
			sole = winners // something is settled
		} else {
			winners[i] = ""
		}
	}
	return sole
}

// intersects reports whether any of query is in the sorted set.
func intersects[S ~string](set, query []S) bool {
	for _, q := range query {
		if _, ok := slices.BinarySearch(set, q); ok {
			return true
		}
	}
	return false
}

// SelectByTasks is Route for a solicitation alone. ok is false when memory
// does not settle the sweep: some candidate is unknown, or nobody offers the
// tasks.
func (x *Index) SelectByTasks(candidates []proto.Addr, tasks []model.TaskID) ([]proto.Addr, bool) {
	sel, describe := x.Route(nil, candidates, nil, tasks)
	return sel, !describe && len(sel) > 0
}

// Mark returns the index's place in the order sets arrived. A session
// takes it when it begins and hands it to Doubt should it fail.
func (x *Index) Mark() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.seq
}

// Doubt is the second staleness rule: when the caller may have routed or
// constructed on what a member said before the caller began — some pulled
// entry, or the knowhow some pushed entry holds, is no newer than mark — it
// drops every pulled entry and the knowhow of every pushed one (the
// advertiser vouches for the sets, nobody vouches for the fragments) and
// reports true. It reports false when everything it would drop was learned
// since mark: asking again would change nothing. Doubt(Mark()) doubts
// everything.
func (x *Index) Doubt(mark uint64) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	older := false
	for _, e := range x.entries {
		if (!e.pushed && e.seq <= mark) || (e.answered != nil && e.since <= mark) {
			older = true
			break
		}
	}
	if !older {
		return false
	}
	for a, e := range x.entries {
		if !e.pushed {
			delete(x.entries, a)
		} else if e.answered != nil {
			e.forget()
			x.entries[a] = e
		}
	}
	return true
}

// Reset wipes every entry (host crash/restart loses volatile state).
func (x *Index) Reset() {
	x.mu.Lock()
	x.entries = nil
	x.mu.Unlock()
}

// Stats returns a snapshot of the index counters.
func (x *Index) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	st := x.stats
	st.Entries = len(x.entries)
	return st
}

// Add merges another snapshot into s (community-wide aggregation).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Excluded += o.Excluded
	s.Ads += o.Ads
	s.Entries += o.Entries
}
