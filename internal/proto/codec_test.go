package proto

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/space"
)

// binEncode encodes env into a fresh frame; binDecode is Decode.
func binEncode(env Envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeTo(&buf, env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func binDecode(data []byte) (Envelope, error) { return Decode(data) }

// --- semantic envelope equality ---
//
// Round trips must preserve *meaning*, not representation: nil and empty
// collections are interchangeable, times compare as instants (wall
// offset and monotonic readings do not survive the wire), and floats
// compare bitwise so NaN payloads round-trip.

func envEqual(a, b Envelope) bool {
	if a.From != b.From || a.To != b.To || a.ReqID != b.ReqID || a.Workflow != b.Workflow {
		return false
	}
	return bodyEqual(a.Body, b.Body)
}

func bodyEqual(a, b Body) bool {
	switch av := a.(type) {
	case FragmentQuery:
		bv, ok := b.(FragmentQuery)
		return ok && labelsEq(av.Labels, bv.Labels) && av.Describe == bv.Describe
	case FragmentReply:
		bv, ok := b.(FragmentReply)
		if !ok || len(av.Fragments) != len(bv.Fragments) {
			return false
		}
		// A described host with nothing to offer (empty set) is not an
		// undescribed one (nil): presence is part of the meaning.
		ac, bc := av.Capabilities, bv.Capabilities
		if (ac == nil) != (bc == nil) {
			return false
		}
		if ac != nil && !(labelsEq(ac.Labels, bc.Labels) && taskIDsEq(ac.Tasks, bc.Tasks)) {
			return false
		}
		for i := range av.Fragments {
			if !fragEq(av.Fragments[i], bv.Fragments[i]) {
				return false
			}
		}
		return true
	case FeasibilityQuery:
		bv, ok := b.(FeasibilityQuery)
		return ok && taskIDsEq(av.Tasks, bv.Tasks)
	case FeasibilityReply:
		bv, ok := b.(FeasibilityReply)
		return ok && taskIDsEq(av.Capable, bv.Capable)
	case Award:
		bv, ok := b.(Award)
		return ok && metaEq(av.Meta, bv.Meta) && slices.EqualFunc(av.More, bv.More, metaEq) && routesEq(av.Routes, bv.Routes) && av.Hold == bv.Hold
	case AwardAck:
		bv, ok := b.(AwardAck)
		return ok && slices.Equal(av.Refused, bv.Refused)
	case Cancel:
		bv, ok := b.(Cancel)
		return ok && taskIDsEq(av.Tasks, bv.Tasks)
	case Plan:
		bv, ok := b.(Plan)
		return ok && slices.EqualFunc(av.Segments, bv.Segments, segmentEq)
	case LabelTransfer:
		bv, ok := b.(LabelTransfer)
		return ok && av.Label == bv.Label && av.Producer == bv.Producer &&
			bytes.Equal(av.Data, bv.Data)
	case TaskDone:
		bv, ok := b.(TaskDone)
		return ok && av == bv
	case Ack:
		_, ok := b.(Ack)
		return ok
	case CallForBidsBatch:
		bv, ok := b.(CallForBidsBatch)
		if !ok || len(av.Metas) != len(bv.Metas) {
			return false
		}
		for i := range av.Metas {
			if !metaEq(av.Metas[i], bv.Metas[i]) {
				return false
			}
		}
		return true
	case BidBatch:
		bv, ok := b.(BidBatch)
		if !ok || len(av.Bids) != len(bv.Bids) || !taskIDsEq(av.Declines, bv.Declines) {
			return false
		}
		for i := range av.Bids {
			a, b := av.Bids[i], bv.Bids[i]
			if a.Task != b.Task || a.ServicesOffered != b.ServicesOffered ||
				!f64Eq(a.Specialization, b.Specialization) || !a.Deadline.Equal(b.Deadline) {
				return false
			}
		}
		return true
	case LeaseRefresh:
		bv, ok := b.(LeaseRefresh)
		return ok && taskIDsEq(av.Tasks, bv.Tasks)
	case LeaseRefreshAck:
		bv, ok := b.(LeaseRefreshAck)
		return ok && taskIDsEq(av.Missing, bv.Missing) && taskIDsEq(av.Finished, bv.Finished)
	case Advertise:
		bv, ok := b.(Advertise)
		return ok && labelsEq(av.Labels, bv.Labels) && taskIDsEq(av.Tasks, bv.Tasks)
	case AdvertiseAck:
		bv, ok := b.(AdvertiseAck)
		return ok && labelsEq(av.Labels, bv.Labels) && taskIDsEq(av.Tasks, bv.Tasks)
	default:
		return false
	}
}

func labelsEq(a, b []model.LabelID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func taskIDsEq(a, b []model.TaskID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func f64Eq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func fragEq(a, b *model.Fragment) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Name != b.Name || len(a.Tasks) != len(b.Tasks) {
		return false
	}
	for i := range a.Tasks {
		at, bt := a.Tasks[i], b.Tasks[i]
		if at.ID != bt.ID || at.Mode != bt.Mode ||
			!labelsEq(at.Inputs, bt.Inputs) || !labelsEq(at.Outputs, bt.Outputs) {
			return false
		}
	}
	return true
}

// segmentEq compares one commitment's routing.
func segmentEq(a, b PlanSegment) bool {
	return a.Task == b.Task && a.Initiator == b.Initiator && routesEq(a.Routes, b.Routes)
}

// routesEq compares route lists, nil equal to empty as the codec has it.
func routesEq(a, b []Route) bool { return len(a) == len(b) && slices.Equal(a, b) }

func metaEq(a, b TaskMeta) bool {
	return a.Task == b.Task && a.Mode == b.Mode &&
		labelsEq(a.Inputs, b.Inputs) && labelsEq(a.Outputs, b.Outputs) &&
		a.Start.Equal(b.Start) && a.End.Equal(b.End) &&
		(a.Location == nil) == (b.Location == nil) &&
		(a.Location == nil || f64Eq(a.Location.X, b.Location.X) && f64Eq(a.Location.Y, b.Location.Y))
}

// --- randomized envelope generation ---

func randString(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256)) // arbitrary bytes, not just printable
	}
	return string(b)
}

func randLabels(rng *rand.Rand) []model.LabelID {
	n := rng.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]model.LabelID, n)
	for i := range out {
		out[i] = model.LabelID(randString(rng, 24))
	}
	return out
}

func randTaskIDs(rng *rand.Rand) []model.TaskID {
	n := rng.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]model.TaskID, n)
	for i := range out {
		out[i] = model.TaskID(randString(rng, 24))
	}
	return out
}

func randTime(rng *rand.Rand) time.Time {
	if rng.Intn(8) == 0 {
		return time.Time{}
	}
	return time.Unix(rng.Int63n(1<<40)-(1<<39), rng.Int63n(1e9))
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	default:
		return rng.NormFloat64() * 1e6
	}
}

func randTask(rng *rand.Rand) model.Task {
	return model.Task{
		ID:      model.TaskID(randString(rng, 16)),
		Mode:    model.Mode(rng.Intn(4)), // including invalid modes: the wire does not validate
		Inputs:  randLabels(rng),
		Outputs: randLabels(rng),
	}
}

func randFragment(rng *rand.Rand) *model.Fragment {
	f := &model.Fragment{Name: randString(rng, 16)}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		f.Tasks = append(f.Tasks, randTask(rng))
	}
	return f
}

func randMeta(rng *rand.Rand) TaskMeta {
	m := TaskMeta{
		Task:    model.TaskID(randString(rng, 16)),
		Mode:    model.Mode(rng.Intn(4)),
		Inputs:  randLabels(rng),
		Outputs: randLabels(rng),
		Start:   randTime(rng),
		End:     randTime(rng),
	}
	if at := (space.Point{X: randFloat(rng), Y: randFloat(rng)}); rng.Intn(2) == 1 {
		m.Location = &at
	}
	return m
}

// randMetas draws fewer than limit metas, nil for none.
func randMetas(rng *rand.Rand, limit int) []TaskMeta {
	var metas []TaskMeta
	for i, n := 0, rng.Intn(limit); i < n; i++ {
		metas = append(metas, randMeta(rng))
	}
	return metas
}

func randSegment(rng *rand.Rand) PlanSegment {
	seg := PlanSegment{
		Task:      model.TaskID(randString(rng, 16)),
		Initiator: Addr(randString(rng, 12)),
	}
	seg.Routes = randRoutes(rng)
	return seg
}

// randRoutes draws up to five routes, nil for none.
func randRoutes(rng *rand.Rand) []Route {
	var routes []Route
	for i, n := 0, rng.Intn(6); i < n; i++ {
		routes = append(routes, Route{Label: model.LabelID(randString(rng, 12)), To: Addr(randString(rng, 12))})
	}
	return routes
}

// randArms draws a body of each kind, one arm per kind (TestBodyKinds).
// randBody picks an arm by index, so adding or reordering arms changes
// what the seeded tests and the fuzz corpus draw.
var randArms = []func(rng *rand.Rand) Body{
	func(rng *rand.Rand) Body {
		return FragmentQuery{Labels: randLabels(rng), Describe: rng.Intn(2) == 1}
	},
	func(rng *rand.Rand) Body {
		var frags []*model.Fragment
		for i, n := 0, rng.Intn(4); i < n; i++ {
			frags = append(frags, randFragment(rng))
		}
		reply := FragmentReply{Fragments: frags}
		if rng.Intn(2) == 1 {
			reply.Capabilities = &Advertise{Labels: randLabels(rng), Tasks: randTaskIDs(rng)}
		}
		return reply
	},
	func(rng *rand.Rand) Body { return FeasibilityQuery{Tasks: randTaskIDs(rng)} },
	func(rng *rand.Rand) Body { return FeasibilityReply{Capable: randTaskIDs(rng)} },
	func(rng *rand.Rand) Body {
		return LeaseRefreshAck{Missing: randTaskIDs(rng), Finished: randTaskIDs(rng)}
	},
	func(rng *rand.Rand) Body { return Advertise{Labels: randLabels(rng), Tasks: randTaskIDs(rng)} },
	func(rng *rand.Rand) Body { return AdvertiseAck{Labels: randLabels(rng), Tasks: randTaskIDs(rng)} },
	func(rng *rand.Rand) Body {
		return Award{Meta: randMeta(rng), More: randMetas(rng, 3), Routes: randRoutes(rng), Hold: rng.Intn(2) == 1}
	},
	func(rng *rand.Rand) Body {
		var ack AwardAck
		for i, n := 0, rng.Intn(4); i < n; i++ {
			ack.Refused = append(ack.Refused, Verdict{
				Task:   model.TaskID(randString(rng, 16)),
				Reason: randString(rng, 32),
			})
		}
		return ack
	},
	func(rng *rand.Rand) Body { return Cancel{Tasks: randTaskIDs(rng)} },
	func(rng *rand.Rand) Body {
		var plan Plan
		for i, n := 0, rng.Intn(4); i < n; i++ {
			plan.Segments = append(plan.Segments, randSegment(rng))
		}
		return plan
	},
	func(rng *rand.Rand) Body {
		var data []byte
		if n := rng.Intn(64); n > 0 {
			data = make([]byte, n)
			rng.Read(data)
		}
		return LabelTransfer{
			Label:    model.LabelID(randString(rng, 16)),
			Data:     data,
			Producer: Addr(randString(rng, 12)),
		}
	},
	func(rng *rand.Rand) Body {
		return TaskDone{Task: model.TaskID(randString(rng, 16)), Err: randString(rng, 32)}
	},
	func(*rand.Rand) Body { return Ack{} },
	func(rng *rand.Rand) Body { return CallForBidsBatch{Metas: randMetas(rng, 5)} },
	func(rng *rand.Rand) Body {
		var bids []Bid
		for i, n := 0, rng.Intn(4); i < n; i++ {
			bids = append(bids, Bid{
				Task:            model.TaskID(randString(rng, 16)),
				ServicesOffered: rng.Intn(100) - 50,
				Specialization:  randFloat(rng),
				Deadline:        randTime(rng),
			})
		}
		return BidBatch{Bids: bids, Declines: randTaskIDs(rng)}
	},
	func(rng *rand.Rand) Body { return LeaseRefresh{Tasks: randTaskIDs(rng)} },
}

func randBody(rng *rand.Rand) Body { return randArms[rng.Intn(len(randArms))](rng) }

func randEnvelope(rng *rand.Rand) Envelope {
	return Envelope{
		From:     Addr(randString(rng, 12)),
		To:       Addr(randString(rng, 12)),
		ReqID:    rng.Uint64() >> uint(rng.Intn(64)),
		Workflow: randString(rng, 20),
		Body:     randBody(rng),
	}
}

// TestRoundTripRandomized encodes and decodes thousands of randomized
// envelopes and checks the round trip is semantically lossless. (This
// used to be half of a differential test against the gob oracle; the
// oracle is retired, the randomized round-trip property stays.)
func TestRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		env := randEnvelope(rng)

		binData, err := binEncode(env)
		if err != nil {
			t.Fatalf("#%d binEncode(%+v): %v", i, env, err)
		}
		binEnv, err := binDecode(binData)
		if err != nil {
			t.Fatalf("#%d Decode: %v\nenvelope: %+v", i, err, env)
		}
		if !envEqual(env, binEnv) {
			t.Fatalf("#%d round trip lost information\ninput:  %+v\noutput: %+v",
				i, env, binEnv)
		}
	}
}

// TestEncodeDeterministic pins that equal envelopes encode to identical
// bytes (maps are written in sorted key order), which gob never promised.
func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		env := randEnvelope(rng)
		a, err := binEncode(env)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			b, err := binEncode(env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("#%d nondeterministic encoding of %+v", i, env)
			}
		}
	}
}

// TestDecodeCopiesInput asserts the property the transports' read-buffer
// reuse depends on: nothing in a decoded envelope aliases the input
// frame, so the caller may scribble over (or recycle) the buffer
// immediately after Decode returns.
func TestDecodeCopiesInput(t *testing.T) {
	frag := model.MustFragment("f", model.Task{
		ID: "cook", Mode: model.Conjunctive,
		Inputs:  []model.LabelID{"ingredients"},
		Outputs: []model.LabelID{"meal"},
	})
	envs := []Envelope{
		{From: "a", To: "b", ReqID: 7, Workflow: "wf-9",
			Body: FragmentQuery{Labels: []model.LabelID{"alpha", "beta"}}},
		{From: "a", To: "b", Body: FragmentReply{Fragments: []*model.Fragment{frag}}},
		{From: "x", To: "y", Body: LabelTransfer{
			Label: "meal", Data: []byte{1, 2, 3, 4}, Producer: "x"}},
		{From: "p", To: "q", Body: Plan{Segments: []PlanSegment{{
			Task: "cook", Initiator: "p", Routes: []Route{{Label: "meal", To: "q"}}}}}},
		{From: "p", To: "q", Body: Award{Meta: TaskMeta{Task: "cook"}, Routes: []Route{{Label: "meal", To: "p"}}}},
	}
	for _, env := range envs {
		t.Run(env.Body.Kind(), func(t *testing.T) {
			data, err := binEncode(env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := binDecode(data)
			if err != nil {
				t.Fatal(err)
			}
			// Scribble over every byte of the frame, as a reused read
			// buffer would.
			for i := range data {
				data[i] = 0xAA
			}
			if !envEqual(env, got) {
				t.Fatalf("decoded envelope changed after input was overwritten:\nwant %+v\ngot  %+v", env, got)
			}
		})
	}
}

// largeEnvelopes are one frame of each large shape a session sends, each
// over cloneThreshold: a label's 4 KiB payload, whose few strings still
// share one copy, and an executor's plan of many segments, an award of
// many tasks with their routes and a reply of many fragments, whose
// strings add up to more, so each is copied out on its own.
func largeEnvelopes() []Envelope {
	pad := strings.Repeat("-", 48)
	var segments []PlanSegment
	var metas []TaskMeta
	var routes []Route
	var fragments []*model.Fragment
	for i := 0; i < 32; i++ {
		task := model.TaskID(fmt.Sprintf("task %d%s", i, pad))
		in, out := model.LabelID(fmt.Sprintf("in %d%s", i, pad)), model.LabelID(fmt.Sprintf("out %d%s", i, pad))
		segments = append(segments, PlanSegment{
			Task: task, Initiator: "host-a",
			Routes: []Route{{Label: out, To: "host-c"}, {Label: out, To: "host-d"}},
		})
		metas = append(metas, TaskMeta{Task: task, Inputs: []model.LabelID{in}, Outputs: []model.LabelID{out}})
		routes = append(routes, segments[i].Routes...)
		fragments = append(fragments, model.MustFragment(fmt.Sprintf("fragment %d", i), model.Task{
			ID: task, Mode: model.Conjunctive,
			Inputs: []model.LabelID{in}, Outputs: []model.LabelID{out},
		}))
	}
	return []Envelope{
		benchLabelTransfer4K(),
		{From: "host-a", To: "host-b", ReqID: 48, Workflow: "wf-1", Body: Plan{Segments: segments}},
		{From: "host-a", To: "host-b", ReqID: 50, Workflow: "wf-1", Body: Award{Meta: metas[0], More: metas[1:], Routes: routes}},
		{From: "host-b", To: "host-a", ReqID: 49, Workflow: "wf-1", Body: FragmentReply{
			Fragments:    fragments,
			Capabilities: &Advertise{Labels: []model.LabelID{"trigger"}, Tasks: []model.TaskID{segments[0].Task}},
		}},
	}
}

// TestDecodeLargeFrameCopiesInput asserts TestDecodeCopiesInput's property
// on frames over cloneThreshold: nothing the decoder returns may alias the
// frame.
func TestDecodeLargeFrameCopiesInput(t *testing.T) {
	for _, env := range largeEnvelopes() {
		t.Run(env.Body.Kind(), func(t *testing.T) {
			data, err := binEncode(env)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) <= cloneThreshold {
				t.Fatalf("frame too small (%d bytes) to be read in place", len(data))
			}
			got, err := binDecode(data)
			if err != nil {
				t.Fatal(err)
			}
			for i := range data {
				data[i] = 0xAA
			}
			if !envEqual(env, got) {
				t.Fatalf("decoded envelope changed after input was overwritten:\nwant %+v\ngot  %+v", env, got)
			}
		})
	}
}

// TestDecodeLargeFrameClonesStrings: a large frame's strings are copied
// out of it, never the frame, so a retained few-byte label cannot pin a
// frame-sized backing array. The round trip must be lossless, and the
// small label must not carry frame-sized memory.
func TestDecodeLargeFrameClonesStrings(t *testing.T) {
	data := make([]byte, cloneThreshold*4)
	for i := range data {
		data[i] = byte(i)
	}
	env := Envelope{
		From: "a", To: "b", ReqID: 9, Workflow: "wf",
		Body: LabelTransfer{Label: "tiny-label", Data: data, Producer: "a"},
	}
	frame, err := binEncode(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) <= cloneThreshold {
		t.Fatalf("frame too small (%d bytes) to exercise clone mode", len(frame))
	}
	got, err := binDecode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !envEqual(env, got) {
		t.Fatalf("large-frame round trip lost information")
	}

	// Retain only the tiny labels of many decoded large frames: if each
	// label still pinned its frame's backing string, the reachable heap
	// would grow by ~totalFrames bytes; with cloning it stays tiny.
	const frames = 100
	totalFrames := uint64(len(frame)) * frames
	labels := make([]model.LabelID, 0, frames)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		e, err := binDecode(frame)
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, e.Body.(LabelTransfer).Label)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)
	if growth > totalFrames/4 {
		t.Fatalf("retaining %d small labels kept %d bytes reachable (frames total %d): labels pin their frames",
			len(labels), growth, totalFrames)
	}
	runtime.KeepAlive(labels)
}

// TestDecodeRejectsCorruptFrames drives the decoder through systematic
// corruption: truncation at every length, trailing garbage, a wrong
// version byte, and an unknown kind tag. Every case must error, never
// panic.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	env := Envelope{
		From: "a", To: "b", ReqID: 99, Workflow: "wf",
		Body: FragmentQuery{Labels: []model.LabelID{"x", "y"}},
	}
	data, err := binEncode(env)
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n < len(data); n++ {
		if _, err := binDecode(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := binDecode(append(append([]byte(nil), data...), 0x01)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = wireVersion + 1
	if _, err := binDecode(bad); err == nil {
		t.Error("wrong version byte accepted")
	}
	bad = append([]byte(nil), data...)
	bad[1] = 200 // unknown kind
	if _, err := binDecode(bad); err == nil {
		t.Error("unknown kind accepted")
	}
	// Random mutations: any outcome but a panic is fine; decoded-OK
	// frames must re-encode and re-decode stably.
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), data...)
		for j, flips := 0, 1+rng.Intn(4); j < flips; j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		got, err := binDecode(mut)
		if err != nil {
			continue
		}
		re, err := binEncode(got)
		if err != nil {
			t.Fatalf("decoded-from-mutation envelope failed to re-encode: %v\n%+v", err, got)
		}
		got2, err := binDecode(re)
		if err != nil || !envEqual(got, got2) {
			t.Fatalf("mutation survivor unstable: %v\nfirst:  %+v\nsecond: %+v", err, got, got2)
		}
	}
	// A huge count must not cause a huge allocation: craft a frame whose
	// label count claims 2^40 entries.
	var buf bytes.Buffer
	e := encoder{buf: &buf}
	e.byte(wireVersion)
	e.header(kindFragmentQuery, Envelope{From: "a", To: "b"})
	e.uint(1 << 40)
	if _, err := binDecode(buf.Bytes()); err == nil {
		t.Error("absurd count accepted")
	}
}

// TestRetiredKindsRejected pins tags 5–7 (the per-task call for bids, bid
// and decline) and 17 (a batch of coalesced envelopes) as retired: a frame
// carrying one — an old peer's, say — is an error like any unknown kind,
// never a panic and never another body.
func TestRetiredKindsRejected(t *testing.T) {
	data, err := binEncode(Envelope{From: "a", To: "b", ReqID: 1, Workflow: "wf", Body: Cancel{Tasks: []model.TaskID{"t"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range retiredKinds {
		frame := append([]byte(nil), data...)
		frame[1] = kind
		if env, err := binDecode(frame); err == nil {
			t.Errorf("retired kind %d decoded as %T", kind, env.Body)
		}
	}
}

// retiredKinds are the tags no body carries any more.
var retiredKinds = []byte{5, 6, 7, 17}

// TestBodyKinds checks what the compiler cannot about the bodies' tags,
// in both directions: every tag the decoder knows has a randBody arm whose
// body carries that tag and round-trips, every arm's tag is known to the
// decoder, and no live tag is skipped except a retired one.
func TestBodyKinds(t *testing.T) {
	decoded := decodedBodies()
	rng := rand.New(rand.NewSource(1))
	armed := make(map[byte]bool)
	for i, arm := range randArms {
		body := arm(rng)
		tag := body.kind()
		armed[tag] = true
		if _, ok := decoded[tag]; !ok {
			t.Errorf("randArms[%d] draws %s, whose tag %d the decoder does not know", i, body.Kind(), tag)
			continue
		}
		env := Envelope{From: "a", To: "b", ReqID: 1, Workflow: "wf", Body: body}
		data, err := binEncode(env)
		if err != nil {
			t.Errorf("randArms[%d]: %v", i, err)
			continue
		}
		if back, err := binDecode(data); err != nil || !envEqual(env, back) {
			t.Errorf("randArms[%d] draws %s, which decodes as %T (%v)", i, body.Kind(), back.Body, err)
		}
	}
	var top byte
	for tag, body := range decoded {
		top = max(top, tag)
		if !armed[tag] {
			t.Errorf("tag %d decodes as %s, which no randBody arm draws", tag, body.Kind())
		}
		if body.kind() != tag {
			t.Errorf("tag %d decodes as %s, whose kind() is %d", tag, body.Kind(), body.kind())
		}
	}
	for tag := byte(1); tag < top; tag++ {
		if _, ok := decoded[tag]; !ok && !slices.Contains(retiredKinds, tag) {
			t.Errorf("tag %d is below the highest live tag %d but neither decoded nor retired", tag, top)
		}
	}
}

// goldenRow is one pinned frame: the envelope and its hex encoding.
type goldenRow struct {
	name string
	env  Envelope
	want string
}

// checkGolden encodes each row's envelope, compares the bytes with the
// row's, and decodes them back to the same envelope.
func checkGolden(t *testing.T, rows []goldenRow) {
	t.Helper()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			data, err := binEncode(row.env)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(data); got != row.want {
				t.Fatalf("wire bytes changed:\ngot  %s\nwant %s", got, row.want)
			}
			back, err := binDecode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !envEqual(row.env, back) {
				t.Fatalf("golden frame round trip lost information:\nwant %+v\ngot  %+v", row.env, back)
			}
		})
	}
}

// fromV1 is the version-2 frame of a body whose layout version 2 kept: its
// version-1 literal with the version byte, and only that, changed. Every
// golden row built with it is a check that the layout did not drift.
func fromV1(v1 string) string {
	if !strings.HasPrefix(v1, "01") {
		panic("not a version-1 frame: " + v1)
	}
	return hex.EncodeToString([]byte{wireVersion}) + v1[2:]
}

// TestWireFormatGolden pins the byte layout of a representative frame so
// accidental format changes (which would break mixed-version communities)
// fail loudly. Update the constant only with a wireVersion bump.
func TestWireFormatGolden(t *testing.T) {
	env := Envelope{
		From: "a1", To: "b2", ReqID: 300, Workflow: "wf",
		Body: FragmentQuery{Labels: []model.LabelID{"x", "yz"}},
	}
	data, err := binEncode(env)
	if err != nil {
		t.Fatal(err)
	}
	const want = "07" + // version
		"01" + // kind: fragment-query
		"026131" + // From "a1"
		"026232" + // To "b2"
		"ac02" + // ReqID 300
		"027766" + // Workflow "wf"
		"02" + // 2 labels
		"0178" + // "x"
		"02797a" + // "yz"
		"00" // Describe false
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("wire bytes changed:\ngot  %s\nwant %s", got, want)
	}
}

// TestWireFormatGoldenBatches pins the byte layout of the two batch
// bodies (PR 5) the same way TestWireFormatGolden pins a representative
// per-task frame. Update the constants only with a wireVersion bump.
func TestWireFormatGoldenBatches(t *testing.T) {
	meta := TaskMeta{
		Task: "t1", Mode: model.Conjunctive,
		Inputs: []model.LabelID{"a"}, Outputs: []model.LabelID{"b"},
		Start: time.Unix(1, 0), End: time.Unix(2, 0),
	}
	checkGolden(t, []goldenRow{
		{
			name: "call-for-bids-batch",
			env: Envelope{From: "a", To: "b", ReqID: 7, Workflow: "wf",
				Body: CallForBidsBatch{Metas: []TaskMeta{meta}}},
			want: "07" + // version
				"0f" + // kind: call-for-bids-batch
				"0161" + "0162" + "07" + "027766" + // header a, b, 7, wf
				"01" + // 1 meta
				"027431" + // task "t1"
				"01" + // mode conjunctive
				"01" + "0161" + // inputs ["a"]
				"01" + "0162" + // outputs ["b"]
				"02" + "00" + // start: 1s (zigzag 2), 0ns
				"04" + "00" + // end: 2s (zigzag 4), 0ns
				"0000000000000000" + "0000000000000000" + // location
				"00", // no location
		},
		{
			name: "bid-batch",
			env: Envelope{From: "a", To: "b", ReqID: 8, Workflow: "wf",
				Body: BidBatch{
					Bids:     []Bid{{Task: "t1", ServicesOffered: 2, Specialization: 0.5, Deadline: time.Unix(3, 0)}},
					Declines: []model.TaskID{"t2"},
				}},
			want: fromV1("01" + // version
				"10" + // kind: bid-batch
				"0161" + "0162" + "08" + "027766" + // header a, b, 8, wf
				"01" + // 1 bid
				"027431" + // task "t1"
				"04" + // services 2 (zigzag 4)
				"3fe0000000000000" + // specialization 0.5
				"06" + "00" + // deadline: 3s (zigzag 6), 0ns
				"01" + "027432"), // declines ["t2"]
		},
	})
}

// TestWireFormatGoldenLease pins the byte layout of the two lease
// bodies (PR 6) and of the release that ends a lease early, the same way
// TestWireFormatGolden pins a representative per-task frame. Update the
// constants only with a wireVersion bump.
func TestWireFormatGoldenLease(t *testing.T) {
	checkGolden(t, []goldenRow{
		{
			name: "lease-refresh",
			env: Envelope{From: "a", To: "b", ReqID: 5, Workflow: "wf",
				Body: LeaseRefresh{Tasks: []model.TaskID{"t1", "t2"}}},
			want: fromV1("01" + // version
				"12" + // kind: lease-refresh
				"0161" + "0162" + "05" + "027766" + // header a, b, 5, wf
				"02" + "027431" + "027432"), // tasks ["t1","t2"]
		},
		{
			name: "lease-refresh-ack",
			env: Envelope{From: "b", To: "a", ReqID: 5, Workflow: "wf",
				Body: LeaseRefreshAck{Missing: []model.TaskID{"t1"}, Finished: []model.TaskID{"t2", "t3"}}},
			want: "07" + // version
				"13" + // kind: lease-refresh-ack
				"0162" + "0161" + "05" + "027766" + // header b, a, 5, wf
				"01" + "027431" + // missing ["t1"]
				"02" + "027432" + "027433", // finished ["t2","t3"]
		},
		{
			// One cancel per host names every task it revokes there.
			name: "cancel",
			env: Envelope{From: "a", To: "b", Workflow: "wf",
				Body: Cancel{Tasks: []model.TaskID{"t1", "t2"}}},
			want: "07" + // version
				"0a" + // kind: cancel
				"0161" + "0162" + "00" + "027766" + // header a, b, 0 (one-way), wf
				"02" + "027431" + "027432", // tasks ["t1","t2"]
		},
		{
			// The end-of-workflow release is a cancel that names no task:
			// the same kind and layout as any other cancel, an empty list
			// where the tasks go — the byte version 1 wrote for an empty
			// task name.
			name: "release",
			env: Envelope{From: "a", To: "b", Workflow: "wf",
				Body: Cancel{}},
			want: fromV1("01" + // version
				"0a" + // kind: cancel
				"0161" + "0162" + "00" + "027766" + // header a, b, 0 (one-way), wf
				"00"), // tasks []
		},
	})
}

// TestWireFormatGoldenDiscovery pins the byte layout of the two
// capability-advertisement bodies (PR 9) the same way
// TestWireFormatGoldenLease pins the lease bodies. Update the constants
// only with a wireVersion bump.
func TestWireFormatGoldenDiscovery(t *testing.T) {
	checkGolden(t, []goldenRow{
		{
			name: "advertise",
			env: Envelope{From: "a", To: "b", ReqID: 5, Workflow: "wf",
				Body: Advertise{Labels: []model.LabelID{"l1", "l2"}, Tasks: []model.TaskID{"t1"}}},
			want: fromV1("01" + // version
				"14" + // kind: advertise
				"0161" + "0162" + "05" + "027766" + // header a, b, 5, wf
				"02" + "026c31" + "026c32" + // labels ["l1","l2"]
				"01" + "027431"), // tasks ["t1"]
		},
		{
			name: "advertise-ack",
			env: Envelope{From: "b", To: "a", ReqID: 5, Workflow: "wf",
				Body: AdvertiseAck{Labels: []model.LabelID{"l3"}, Tasks: nil}},
			want: fromV1("01" + // version
				"15" + // kind: advertise-ack
				"0162" + "0161" + "05" + "027766" + // header b, a, 5, wf
				"01" + "026c33" + // labels ["l3"]
				"00"), // tasks []
		},
	})
}

// TestWireFormatGoldenDescribe pins FragmentQuery.Describe, a bool after
// the labels, and FragmentReply.Capabilities, a presence bool after the
// fragments and then the set: a described host with nothing to offer is an
// empty set, not an absent one.
func TestWireFormatGoldenDescribe(t *testing.T) {
	frag := model.MustFragment("f", model.Task{
		ID: "t", Mode: model.Conjunctive,
		Inputs: []model.LabelID{"a"}, Outputs: []model.LabelID{"b"},
	})
	const (
		query = "07" + "01" + "026131" + "026232" + "ac02" + "027766" + // TestWireFormatGolden's header
			"02" + "0178" + "02797a" // labels ["x", "yz"]
		reply = "07" + // version
			"02" + // kind: fragment-reply
			"0162" + "0161" + "07" + "027766" + // header b, a, 7, wf
			"01" + // 1 fragment
			"0166" + // name "f"
			"01" + // 1 task
			"0174" + "01" + // task "t", conjunctive
			"01" + "0161" + // inputs ["a"]
			"01" + "0162" // outputs ["b"]
	)
	checkGolden(t, []goldenRow{
		{
			name: "fragment-query-describe",
			env: Envelope{From: "a1", To: "b2", ReqID: 300, Workflow: "wf",
				Body: FragmentQuery{Labels: []model.LabelID{"x", "yz"}, Describe: true}},
			want: query + "01", // describe yourself
		},
		{
			name: "fragment-reply",
			env: Envelope{From: "b", To: "a", ReqID: 7, Workflow: "wf",
				Body: FragmentReply{Fragments: []*model.Fragment{frag}}},
			want: reply + "00", // no capability set
		},
		{
			name: "fragment-reply-described",
			env: Envelope{From: "b", To: "a", ReqID: 7, Workflow: "wf",
				Body: FragmentReply{Fragments: []*model.Fragment{frag},
					Capabilities: &Advertise{Labels: []model.LabelID{"a"}, Tasks: []model.TaskID{"t", "u"}}}},
			want: reply + "01" + // a capability set:
				"01" + "0161" + // labels ["a"]
				"02" + "0174" + "0175", // tasks ["t", "u"]
		},
		{
			name: "fragment-reply-described-empty",
			env: Envelope{From: "b", To: "a", ReqID: 7, Workflow: "wf",
				Body: FragmentReply{Capabilities: &Advertise{}}},
			want: "07" + "02" + "0162" + "0161" + "07" + "027766" +
				"00" + // no fragments
				"01" + "00" + "00", // a capability set: nothing consumed, nothing offered
		},
	})
}

// TestEncodeRejectsNilFragment matches gob, which cannot encode nil
// pointers: a FragmentReply carrying a nil *Fragment is a local error,
// not a wire frame.
func TestEncodeRejectsNilFragment(t *testing.T) {
	_, err := binEncode(Envelope{From: "a", To: "b", Body: FragmentReply{
		Fragments: []*model.Fragment{nil},
	}})
	if err == nil {
		t.Fatal("nil fragment encoded")
	}
}

// TestEncodeRejectsNilBody pins the nil-body error on the encode side
// (Decode can never produce a nil body: every kind tag maps to a value).
func TestEncodeRejectsNilBody(t *testing.T) {
	if _, err := binEncode(Envelope{From: "a", To: "b"}); err == nil {
		t.Fatal("nil body encoded")
	}
}
