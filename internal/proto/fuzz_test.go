package proto

import (
	"math/rand"
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/space"
)

// FuzzEnvelopeRoundTrip feeds arbitrary bytes to the binary decoder: it
// must reject garbage with an error (never a panic, never an oversized
// allocation), and anything it accepts must re-encode and re-decode to a
// semantically identical envelope (decode∘encode is the identity on the
// decoder's image). CI runs a short -fuzztime smoke of this target; run
// it longer locally with
//
//	go test -fuzz=FuzzEnvelopeRoundTrip ./internal/proto
func FuzzEnvelopeRoundTrip(f *testing.F) {
	frag := model.MustFragment("f", model.Task{
		ID: "t", Mode: model.Conjunctive,
		Inputs:  []model.LabelID{"a"},
		Outputs: []model.LabelID{"b"},
	})
	meta := TaskMeta{
		Task: "t", Mode: model.Disjunctive,
		Inputs: []model.LabelID{"a"}, Outputs: []model.LabelID{"b"},
		Start: time.Unix(100, 5), End: time.Unix(200, 0),
		Location: space.Point{X: 1, Y: 2}, HasLocation: true,
	}
	seeds := []Body{
		FragmentQuery{Labels: []model.LabelID{"a", "b"}},
		FragmentReply{Fragments: []*model.Fragment{frag}},
		FragmentQuery{Labels: []model.LabelID{"a", "b"}, Describe: true},
		FragmentReply{Fragments: []*model.Fragment{frag},
			Capabilities: &Advertise{Labels: []model.LabelID{"a"}, Tasks: []model.TaskID{"t"}}},
		FragmentReply{Capabilities: &Advertise{}},
		FeasibilityQuery{Tasks: []model.TaskID{"t"}},
		FeasibilityReply{Capable: []model.TaskID{"t"}},
		Award{Meta: meta},
		Award{Meta: meta, More: []TaskMeta{meta}, Routes: []Route{{Label: "b", To: "h2"}, {Label: "b", To: "h3"}}},
		AwardAck{Verdicts: []Verdict{{Task: "t", OK: true, Reason: "r"}}},
		Award{Meta: meta, Routes: []Route{{Label: "b", To: "h0"}}, Hold: true},
		Cancel{Tasks: []model.TaskID{"t"}},
		Plan{Segments: []PlanSegment{{
			Task: "t", Initiator: "h0",
			Routes: []Route{{Label: "b", To: "h2"}, {Label: "b", To: "h3"}},
		}}},
		LabelTransfer{Label: "a", Data: []byte{0, 1, 255}, Producer: "h1"},
		TaskDone{Task: "t", Err: "boom"},
		Ack{},
		CallForBidsBatch{Metas: []TaskMeta{meta, meta}},
		BidBatch{
			Bids:     []Bid{{Task: "t", ServicesOffered: 3, Specialization: 0.5, Deadline: time.Unix(50, 0)}},
			Declines: []model.TaskID{"u", "v"},
		},
		LeaseRefresh{Tasks: []model.TaskID{"t", "u"}},
		LeaseRefreshAck{Missing: []model.TaskID{"t"}},
		CallForBidsBatch{Metas: []TaskMeta{meta}},
	}
	for _, body := range seeds {
		data, err := Encode(Envelope{From: "a", To: "b", ReqID: 42, Workflow: "wf", Body: body})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A winner's held three-task award, its three verdicts, an executor's
	// three-segment plan and a call for bids on two tasks: the lists of the
	// one-message-per-peer bodies (TestWireFormatGoldenGroups pins the same
	// four frames).
	award, ack, plan, cfb := groupEnvelopes()
	for _, env := range []Envelope{award, ack, plan, cfb} {
		data, err := Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Frames over cloneThreshold, which the decoder reads in place: a
	// label's 4 KiB payload, a many-segment plan and a many-fragment reply.
	for _, env := range largeEnvelopes() {
		data, err := Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Randomized valid frames widen the corpus beyond the hand-picked
	// shapes; a few corrupt seeds steer the mutator at rejection paths.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 32; i++ {
		if data, err := Encode(randEnvelope(rng)); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Add([]byte{wireVersion, kindAck, 0xff, 0xff, 0xff})
	f.Add([]byte("not a frame at all"))
	// An old peer's per-task and coalesced frames: retired tags 5–7 and 17
	// must stay rejected.
	for _, kind := range []byte{5, 6, 7, 17} {
		f.Add([]byte{wireVersion, kind, 1, 'a', 1, 'b', 42, 2, 'w', 'f', 1, 't'})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if env.Body == nil {
			t.Fatal("Decode returned nil body without error")
		}
		out, err := Encode(env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v\n%+v", err, env)
		}
		env2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v\n%+v", err, env)
		}
		if !envEqual(env, env2) {
			t.Fatalf("round trip not stable:\nfirst:  %+v\nsecond: %+v", env, env2)
		}
	})
}
