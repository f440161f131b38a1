package proto

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/space"
	"openwf/internal/testutil"
)

// TestEncodeToAllocFree pins the transports' marshal path:
// EncodeTo into a reused buffer (the pooled-buffer steady state, once
// the backing array has grown to fit the envelope) performs no heap
// allocations. BenchmarkEncodeToPooled reports the same number, but a
// benchmark only shows regressions to whoever runs it — this fails
// `go test ./...`.
func TestEncodeToAllocFree(t *testing.T) {
	env := benchEnvelope()
	buf := new(bytes.Buffer)
	testutil.AllocBound(t, 0, func() {
		buf.Reset()
		if err := EncodeTo(buf, env); err != nil {
			t.Error(err)
		}
	})
}

// TestEncodeToBidAllocFree pins the other hot message shape, the
// auction reply, on the same path.
func TestEncodeToBidAllocFree(t *testing.T) {
	env := benchBidEnvelope()
	buf := new(bytes.Buffer)
	testutil.AllocBound(t, 0, func() {
		buf.Reset()
		if err := EncodeTo(buf, env); err != nil {
			t.Error(err)
		}
	})
}

// TestEncodeToPlanAllocFree pins the executor's plan segment on the same
// path: its routes are one flat list.
func TestEncodeToPlanAllocFree(t *testing.T) {
	env := Envelope{From: "host-a", To: "host-b", ReqID: 45, Workflow: "wf-1", Body: Plan{Segments: []PlanSegment{{
		Task: "cook omelets", Initiator: "host-a",
		Routes: []Route{{Label: "omelets", To: "host-a"}, {Label: "shells", To: "host-c"}, {Label: "shells", To: "host-d"}},
	}}}}
	buf := new(bytes.Buffer)
	testutil.AllocBound(t, 0, func() {
		buf.Reset()
		if err := EncodeTo(buf, env); err != nil {
			t.Error(err)
		}
	})
}

// decodeRow is one frame shape of the decode bounds: the envelope, the
// most allocations its decode may make, and the most bytes, which are the
// bytes it cost while every list was its own slice.
type decodeRow struct {
	name   string
	allocs float64
	bytes  uint64
	env    Envelope
}

// decodeRows are a frame of every body kind, and for an auction message
// each chain the auction sends: an award of one, two, three and six tasks
// with their routes and a call for bids of one task or six.
func decodeRows() []decodeRow {
	at := time.Unix(1700000000, 0)
	meta := TaskMeta{Task: "cook omelets", Inputs: []model.LabelID{"eggs"}, Outputs: []model.LabelID{"omelets"}, Start: at, End: at.Add(time.Hour)}
	located := meta
	located.Location = &space.Point{X: 3, Y: 4}
	chain := make([]TaskMeta, 6)
	routes := make([]Route, 6)
	for i := range chain {
		in, out := model.LabelID(fmt.Sprintf("l%d", i)), model.LabelID(fmt.Sprintf("l%d", i+1))
		chain[i] = TaskMeta{Task: model.TaskID(fmt.Sprintf("t%d", i+1)), Inputs: []model.LabelID{in}, Outputs: []model.LabelID{out},
			Start: at.Add(time.Duration(i) * time.Second), End: at.Add(time.Duration(i+1) * time.Second)}
		routes[i] = Route{Label: out, To: "host-b"}
	}
	routes[5].To = "host-a" // the goal returns to the initiator
	tasks6 := make([]model.TaskID, len(chain))
	for i, m := range chain {
		tasks6[i] = m.Task
	}
	award := func(tasks int, routed bool) Award {
		a := Award{Meta: chain[0], More: chain[1:tasks]}
		if routed {
			a.Routes = routes[:tasks]
		}
		return a
	}
	fragments := make([]*model.Fragment, 3)
	for i := range fragments {
		fragments[i] = &model.Fragment{Name: fmt.Sprintf("fragment %d", i), Tasks: []model.Task{{
			ID: chain[i].Task, Mode: model.Conjunctive, Inputs: chain[i].Inputs, Outputs: chain[i].Outputs,
		}}}
	}
	env := func(b Body) Envelope {
		return Envelope{From: "host-a", To: "host-b", ReqID: 44, Workflow: "wf-1", Body: b}
	}
	return []decodeRow{
		{"fragment-query", 3, 176, benchEnvelope()},
		{"fragment-reply", 6, 264, env(FragmentReply{Fragments: fragments[:1]})},
		{"fragment-reply-of-3", 6, 648, env(FragmentReply{Fragments: fragments})},
		{"fragment-reply-described", 8, 760, env(FragmentReply{Fragments: fragments,
			Capabilities: &Advertise{Labels: []model.LabelID{"l0"}, Tasks: tasks6[:3]}})},
		{"feasibility-query", 3, 168, env(FeasibilityQuery{Tasks: tasks6})},
		{"feasibility-reply", 3, 88, env(FeasibilityReply{Capable: tasks6[:2]})},
		{"award", 3, 320, env(Award{Meta: meta})},
		{"award-located", 3 + 1, 336, env(Award{Meta: located})},
		{"award-with-route", 3, 336, env(award(1, true))},
		{"award-of-2-with-routes", 3, 608, env(award(2, true))},
		{"award-of-3-with-routes", 3, 832, env(award(3, true))},
		{"award-of-6", 3, 1376, env(award(6, false))},
		{"award-of-6-with-routes", 3, 1632, env(award(6, true))},
		{"award-ack", 1, 24, env(AwardAck{})},
		{"award-ack-refusing-one", 3, 120, env(AwardAck{Refused: []Verdict{{Task: "cook omelets", Reason: "hold gone"}}})},
		{"cancel", 3, 88, env(Cancel{Tasks: []model.TaskID{"cook omelets"}})},
		{"cancel-of-6", 3, 168, env(Cancel{Tasks: tasks6})},
		{"plan", 4, 184, env(Plan{Segments: []PlanSegment{{
			Task: "cook omelets", Initiator: "host-a", Routes: []Route{{Label: "omelets", To: "host-a"}},
		}}})},
		{"label-transfer-4k", 3, 4192, benchLabelTransfer4K()},
		{"task-done", 2, 80, env(TaskDone{Task: "cook omelets", Err: "boom"})},
		{"ack", 1, 24, env(Ack{})},
		{"call-for-bids-batch", 3, 280, env(CallForBidsBatch{Metas: []TaskMeta{meta}})},
		{"cfb-of-6", 3, 1400, env(CallForBidsBatch{Metas: chain})},
		{"bid-batch", 4, 208, benchBidEnvelope()},
		{"lease-refresh", 3, 168, env(LeaseRefresh{Tasks: tasks6})},
		{"lease-refresh-ack", 3, 144, env(LeaseRefreshAck{Missing: tasks6[:1], Finished: tasks6[1:3]})},
		{"advertise", 4, 160, env(Advertise{Labels: []model.LabelID{"l0", "l1"}, Tasks: tasks6[:2]})},
		{"advertise-ack", 4, 112, env(AdvertiseAck{Labels: []model.LabelID{"l0"}, Tasks: tasks6[:1]})},
	}
}

// TestDecodeAllocBounds pins the read half of the same path. A frame's
// strings are copied once, back to back, into one string that backs every
// decoded string; its lists are counted first and then cut from one list
// per element type, or, for an auction message, from one block holding its
// metas, routes and labels. So a body costs the strings' copy, its boxing
// into Body and its lists' one allocation: an award or a call for bids 3
// whether it carries one task or six, with its routes or without (a 2-task
// award cost 6 while each list was its own slice and the label slab was
// reserved twice, a call for bids 4), a fragment reply 6 however many
// fragments it carries (7 for one, 12 for three, each fragment and its
// tasks a slice of their own), and a 4 KiB label transfer 3 (7 while a
// large frame's strings were each copied on their own). A meta's location
// costs one allocation for all of a frame's points. An ack that confirms
// every task carries no list, so it costs the strings' copy alone; a body
// of two element types, a bid batch or an advertisement, costs one list
// more. The decoder itself must stay on the stack; a rewrite that lets it
// escape shows up here as one more allocation on every row.
//
// No row may cost more bytes than it did while every list was its own
// slice: a block holds exactly the counts its frame carries, and the
// strings' copy leaves out the frame's varints, times and floats.
func TestDecodeAllocBounds(t *testing.T) {
	for _, c := range decodeRows() {
		t.Run(c.name, func(t *testing.T) {
			data, err := binEncode(c.env)
			if err != nil {
				t.Fatal(err)
			}
			decode := func() {
				if _, err := Decode(data); err != nil {
					t.Error(err)
				}
			}
			testutil.AllocBound(t, c.allocs, decode)
			if got := bytesPerRun(decode); got > c.bytes {
				t.Errorf("decoding allocates %d B/op, want ≤ %d", got, c.bytes)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call, averaged over 100 calls on one P after a warm-up
// call, as a benchmark's B/op reads them.
func bytesPerRun(f func()) uint64 {
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestDecodedListsDoNotShareTails: a frame's lists are windows of one list
// per element type, or of one block, each capped at its own length, so
// appending to any of them copies it and leaves the next list intact —
// in a call for bids, an award with its More and Routes, and a fragment
// reply of several fragments and their tasks.
func TestDecodedListsDoNotShareTails(t *testing.T) {
	metas := []TaskMeta{
		{Task: "t1", Inputs: []model.LabelID{"a"}, Outputs: []model.LabelID{"b"}},
		{Task: "t2", Inputs: []model.LabelID{"b"}, Outputs: []model.LabelID{"c"}},
		{Task: "t3", Inputs: []model.LabelID{"c"}, Outputs: []model.LabelID{"d"}},
	}
	task := func(id, in, out string) model.Task {
		return model.Task{ID: model.TaskID(id), Inputs: []model.LabelID{model.LabelID(in)}, Outputs: []model.LabelID{model.LabelID(out)}}
	}
	for _, c := range []struct {
		name string
		body Body
	}{
		{"call-for-bids-batch", CallForBidsBatch{Metas: metas[:2]}},
		{"award-of-3", Award{Meta: metas[0], More: metas[1:], Routes: []Route{{Label: "b", To: "h2"}, {Label: "c", To: "h3"}, {Label: "d", To: "h1"}}}},
		{"award-of-2", Award{Meta: metas[0], More: metas[1:2], Routes: []Route{{Label: "b", To: "h2"}, {Label: "c", To: "h1"}}}},
		{"fragment-reply", FragmentReply{Fragments: []*model.Fragment{
			{Name: "f1", Tasks: []model.Task{task("t1", "a", "b"), task("t2", "b", "c")}},
			{Name: "f2", Tasks: []model.Task{task("t3", "c", "d")}},
		}, Capabilities: &Advertise{Labels: []model.LabelID{"a"}, Tasks: []model.TaskID{"t1", "t2"}}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			data, err := binEncode(Envelope{From: "a", To: "b", Workflow: "wf", Body: c.body})
			if err != nil {
				t.Fatal(err)
			}
			back, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := Decode(data)
			appendToEveryList(back.Body)
			if !envEqual(back, want) {
				t.Fatalf("appending to the decoded lists changed their neighbours:\ngot  %+v\nwant %+v", back.Body, want.Body)
			}
		})
	}
}

// appendToEveryList appends an element to each list b holds, as a holder
// growing one would; an append that wrote past a list's end would change
// the list after it.
func appendToEveryList(b Body) {
	labels := func(ls []model.LabelID) { _ = append(ls, "!") }
	meta := func(m TaskMeta) { labels(m.Inputs); labels(m.Outputs) }
	switch b := b.(type) {
	case CallForBidsBatch:
		_ = append(b.Metas, TaskMeta{Task: "!"})
		for _, m := range b.Metas {
			meta(m)
		}
	case Award:
		meta(b.Meta)
		_ = append(b.More, TaskMeta{Task: "!"})
		for _, m := range b.More {
			meta(m)
		}
		_ = append(b.Routes, Route{Label: "!", To: "!"})
	case FragmentReply:
		_ = append(b.Fragments, &model.Fragment{Name: "!"})
		for _, f := range b.Fragments {
			_ = append(f.Tasks, model.Task{ID: "!"})
			for _, t := range f.Tasks {
				labels(t.Inputs)
				labels(t.Outputs)
			}
		}
		if c := b.Capabilities; c != nil {
			labels(c.Labels)
			_ = append(c.Tasks, "!")
		}
	}
}

// TestDecodeRejectsEveryPrefix: the sizing pass and the decoding pass read
// a frame alike, so a frame either decodes whole or is refused whole.
// Every strict prefix of each row's frame must be refused, and with any
// one byte raised by one — a count or a length among them — the frame
// must be refused or decode to an envelope that survives its own round
// trip, as FuzzEnvelopeRoundTrip asks of any frame the decoder accepts. A
// pass that read a count the other did not would panic here.
func TestDecodeRejectsEveryPrefix(t *testing.T) {
	for _, c := range decodeRows() {
		t.Run(c.name, func(t *testing.T) {
			data, err := binEncode(c.env)
			if err != nil {
				t.Fatal(err)
			}
			for n := range data {
				if _, err := Decode(data[:n]); err == nil {
					t.Fatalf("the %d-byte prefix of a %d-byte frame decoded", n, len(data))
				}
			}
			raised := make([]byte, len(data))
			for i := range data {
				copy(raised, data)
				raised[i]++
				env, err := Decode(raised)
				if err != nil {
					continue
				}
				again, err := binEncode(env)
				if err != nil {
					t.Fatalf("byte %d raised: decoded %+v, which does not encode: %v", i, env, err)
				}
				if back, err := Decode(again); err != nil || !envEqual(back, env) {
					t.Fatalf("byte %d raised: decoded %+v, which encodes to %+v (%v)", i, env, back, err)
				}
			}
		})
	}
}

// TestDecodeLargeFrameBytes pins what a data-flow hop's decode costs in
// bytes: the payload's one copy and a few small strings, not a second
// frame-sized copy.
func TestDecodeLargeFrameBytes(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation bounds are not meaningful under the race detector")
	}
	payload := len(benchLabelTransfer4K().Body.(LabelTransfer).Data)
	r := testing.Benchmark(BenchmarkDecodeLabelTransfer4K)
	if got, max := r.AllocedBytesPerOp(), int64(payload+256); got > max {
		t.Fatalf("decoding a %d-byte payload allocates %d B/op, want ≤ %d", payload, got, max)
	}
}
