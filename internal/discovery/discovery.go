// Package discovery is a host's one memory of its community: what each
// member has said about itself — the labels its fragments consume, the
// tasks it offers services for — and therefore which members are worth
// sending a sweep. The paper's initiator "communicates with each member of
// the community in turn"; a host that remembers the answers does so once
// per member per TTL, and routes every other sweep of every session to the
// members that can answer it.
//
// A set arrives pulled — the member described itself in a fragment reply
// because a sweep asked it to (proto.FragmentQuery.Describe) — or pushed by
// the member's advertiser (proto.Advertise, AdvertiseAck), which repeats it
// several times per TTL. The way decides what silence means, and one table
// routes every sweep (Route, Capable), member by member:
//
//	no entry        unknown        asked, and asked to describe itself
//	fresh           known          asked iff its set intersects the query
//	pulled, lapsed  unknown again  asked, and asked to describe itself
//	pushed, lapsed  presumed dead  not asked
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
// The index runs on the injected clock, so every rule is testable on the
// simulated clock without wall time.
package discovery

import (
	"slices"
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

// Learn records a member's description of itself from a fragment reply;
// nil (the reply carried none) is ignored. Like ObserveAdvertise it
// replaces the member's set and restarts its TTL.
func (x *Index) Learn(from proto.Addr, caps *proto.Advertise) {
	if caps == nil {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.storeLocked(from, caps.Labels, caps.Tasks, false)
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

// standingLocked classifies a member at now.
func (x *Index) standingLocked(addr proto.Addr, now time.Time) (entry, standing) {
	e, ok := x.entries[addr]
	switch {
	case ok && now.Before(e.expires):
		return e, known
	case ok && e.pushed:
		return e, dead
	}
	return e, unknown
}

// Route returns, in candidate order, the members worth sending a sweep for
// labels (a fragment query) or tasks (a call for bids), by the package
// comment's table; describe reports whether any of them is unknown, i.e.
// whether the sweep should ask for descriptions. It allocates the returned
// slice and nothing else, and with an empty memory not even that.
func (x *Index) Route(candidates []proto.Addr, labels []model.LabelID, tasks []model.TaskID) (members []proto.Addr, describe bool) {
	now := x.clk.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.entries) == 0 {
		x.stats.Misses++
		return candidates, true
	}
	members = make([]proto.Addr, 0, len(candidates))
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

// Capable answers a feasibility query from memory: it marks in out the
// tasks the known candidates offer — no message at all — and returns the
// unknown ones, which still have to be asked.
func (x *Index) Capable(candidates []proto.Addr, tasks []model.TaskID, out map[model.TaskID]struct{}) (ask []proto.Addr) {
	now := x.clk.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, c := range candidates {
		switch e, st := x.standingLocked(c, now); st {
		case unknown:
			ask = append(ask, c)
		case known:
			for _, t := range tasks {
				if _, offered := slices.BinarySearch(e.tasks, t); offered {
					out[t] = struct{}{}
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

// intersects reports whether any of query is in the sorted set.
func intersects[S ~string](set, query []S) bool {
	for _, q := range query {
		if _, ok := slices.BinarySearch(set, q); ok {
			return true
		}
	}
	return false
}

// SelectByLabels is Route for a fragment query alone. ok is false when
// memory does not settle the sweep: some candidate is unknown, or nobody
// consumes the labels.
func (x *Index) SelectByLabels(candidates []proto.Addr, labels []model.LabelID) ([]proto.Addr, bool) {
	sel, describe := x.Route(candidates, labels, nil)
	return sel, !describe && len(sel) > 0
}

// SelectByTasks is Route for a solicitation alone, with SelectByLabels'
// contract.
func (x *Index) SelectByTasks(candidates []proto.Addr, tasks []model.TaskID) ([]proto.Addr, bool) {
	sel, describe := x.Route(candidates, nil, tasks)
	return sel, !describe && len(sel) > 0
}

// Mark returns the index's place in the order sets arrived. A session
// takes it when it begins and hands it to Doubt should it fail.
func (x *Index) Mark() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.seq
}

// Doubt is the second staleness rule: when some pulled entry is no newer
// than mark — the caller may have routed on what a member said before the
// caller began — it drops every pulled entry and reports true. It reports
// false when everything pulled was learned since mark: asking again would
// change nothing. Doubt(Mark()) doubts everything pulled.
func (x *Index) Doubt(mark uint64) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	older := false
	for _, e := range x.entries {
		if !e.pushed && e.seq <= mark {
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
