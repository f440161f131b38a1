package proto

import (
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/space"
)

func TestEncodeDecodeRoundTripAllBodies(t *testing.T) {
	frag, err := model.NewFragment("f", model.Task{
		ID: "t", Mode: model.Conjunctive,
		Inputs:  []model.LabelID{"a"},
		Outputs: []model.LabelID{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := TaskMeta{
		Task: "t", Mode: model.Disjunctive,
		Inputs: []model.LabelID{"a"}, Outputs: []model.LabelID{"b"},
		Start: time.Unix(100, 0), End: time.Unix(200, 0),
		Location: space.Point{X: 1, Y: 2}, HasLocation: true,
	}
	cases := []Body{
		FragmentQuery{Labels: []model.LabelID{"a", "b"}},
		FragmentReply{Fragments: []*model.Fragment{frag}},
		FeasibilityQuery{Tasks: []model.TaskID{"t"}},
		FeasibilityReply{Capable: []model.TaskID{"t"}},
		CallForBidsBatch{Metas: []TaskMeta{meta}},
		BidBatch{
			Bids:     []Bid{{Task: "t", ServicesOffered: 3, Specialization: 0.5, Deadline: time.Unix(50, 0)}},
			Declines: []model.TaskID{"u"},
		},
		Award{Meta: meta},
		AwardAck{Verdicts: []Verdict{{Task: "t", OK: true}}},
		Cancel{Task: "t"},
		Plan{Segments: []PlanSegment{{
			Task:         "t",
			InputSources: map[model.LabelID]Addr{"a": "h1"},
			OutputSinks:  map[model.LabelID][]Addr{"b": {"h2", "h3"}},
		}}},
		LabelTransfer{Label: "a", Data: []byte("payload"), Producer: "h1"},
		TaskDone{Task: "t", Err: "boom"},
	}
	for _, body := range cases {
		t.Run(body.Kind(), func(t *testing.T) {
			env := Envelope{From: "a", To: "b", ReqID: 42, Workflow: "wf-1", Body: body}
			data, err := Encode(env)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.From != "a" || got.To != "b" || got.ReqID != 42 || got.Workflow != "wf-1" {
				t.Errorf("envelope fields lost: %+v", got)
			}
			if got.Body.Kind() != body.Kind() {
				t.Errorf("body kind = %q, want %q", got.Body.Kind(), body.Kind())
			}
		})
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not gob at all")); err == nil {
		t.Error("Decode accepted garbage")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("Decode accepted empty input")
	}
}

func TestRoundTripPreservesPayloads(t *testing.T) {
	env := Envelope{
		From: "x", To: "y", Body: LabelTransfer{Label: "l", Data: []byte{0, 1, 2, 255}, Producer: "x"},
	}
	data, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	lt, ok := got.Body.(LabelTransfer)
	if !ok {
		t.Fatalf("body type = %T", got.Body)
	}
	if string(lt.Data) != string([]byte{0, 1, 2, 255}) {
		t.Errorf("Data = %v", lt.Data)
	}
}

func TestRoundTripTaskMeta(t *testing.T) {
	meta := TaskMeta{
		Task: "cook", Mode: model.Conjunctive,
		Inputs: []model.LabelID{"a", "b"}, Outputs: []model.LabelID{"c"},
		Start: time.Unix(1000, 0).UTC(), End: time.Unix(2000, 0).UTC(),
		Location: space.Point{X: 3.5, Y: -1}, HasLocation: true,
	}
	data, err := Encode(Envelope{From: "a", To: "b", Body: Award{Meta: meta}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	award := got.Body.(Award)
	if award.Meta.Task != "cook" || !award.Meta.Start.Equal(meta.Start) ||
		award.Meta.Location != meta.Location || !award.Meta.HasLocation {
		t.Errorf("meta mangled: %+v", award.Meta)
	}
	if len(award.Meta.Inputs) != 2 || award.Meta.Inputs[0] != "a" {
		t.Errorf("inputs mangled: %v", award.Meta.Inputs)
	}
}

func TestKinds(t *testing.T) {
	// Every body type, mirroring the codec's kind table.
	all := []Body{
		FragmentQuery{}, FragmentReply{}, FeasibilityQuery{}, FeasibilityReply{},
		Award{}, AwardAck{}, Cancel{},
		Plan{}, LabelTransfer{}, TaskDone{}, Ack{},
		CallForBidsBatch{}, BidBatch{}, EnvelopeBatch{},
		LeaseRefresh{}, LeaseRefreshAck{},
	}
	seen := make(map[string]bool)
	for _, b := range all {
		k := b.Kind()
		if k == "" {
			t.Errorf("%T has empty kind", b)
		}
		if seen[k] {
			t.Errorf("duplicate kind %q", k)
		}
		seen[k] = true
	}
}
