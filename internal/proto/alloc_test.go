package proto

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"openwf/internal/model"
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

// TestDecodeAllocBounds pins the read half of the same path: one copy of
// a small frame as a string backs every decoded string, so a body costs
// that copy, its boxing into Body, and one allocation per slice it
// carries — nothing per field. A large frame is not copied whole; each of
// its strings is copied out on its own (label-transfer-4k: five strings,
// the payload and the boxing). The decoder itself must stay on the
// stack; a rewrite that lets it escape shows up here as one more
// allocation on every row. Routes are one flat list: a 6-task award that
// carries its plan costs one allocation more than one that does not, and a
// map-shaped routing form would cost several per task. A Cancel's tasks
// are one list too: naming six costs what naming one does.
func TestDecodeAllocBounds(t *testing.T) {
	at := time.Unix(1700000000, 0)
	meta := TaskMeta{Task: "cook omelets", Inputs: []model.LabelID{"eggs"}, Outputs: []model.LabelID{"omelets"}, Start: at, End: at.Add(time.Hour)}
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
	award6 := Award{Meta: chain[0], More: chain[1:]}
	routed6 := award6
	routed6.Routes = routes
	for _, c := range []struct {
		name string
		max  float64
		env  Envelope
	}{
		{"fragment-query", 3, benchEnvelope()},
		{"cancel", 3, Envelope{From: "host-a", To: "host-b", Workflow: "wf-1", Body: Cancel{Tasks: []model.TaskID{"cook omelets"}}}},
		{"cancel-of-6", 3, Envelope{From: "host-a", To: "host-b", Workflow: "wf-1", Body: Cancel{Tasks: tasks6}}},
		{"bid-batch", 4, benchBidEnvelope()},
		{"award", 4, Envelope{From: "host-a", To: "host-b", ReqID: 44, Workflow: "wf-1", Body: Award{Meta: meta}}},
		{"award-of-6", 15, Envelope{From: "host-a", To: "host-b", ReqID: 44, Workflow: "wf-1", Body: award6}},
		{"award-of-6-with-routes", 15 + 1, Envelope{From: "host-a", To: "host-b", ReqID: 44, Workflow: "wf-1", Body: routed6}},
		{"fragment-reply", 7, Envelope{From: "host-b", To: "host-a", ReqID: 42, Workflow: "wf-1", Body: FragmentReply{
			Fragments: []*model.Fragment{{Name: "omelet bar", Tasks: []model.Task{{
				ID: "cook omelets", Inputs: []model.LabelID{"eggs"}, Outputs: []model.LabelID{"omelets"},
			}}}},
		}}},
		{"award-ack", 3, Envelope{From: "host-b", To: "host-a", ReqID: 44, Workflow: "wf-1", Body: AwardAck{
			Verdicts: []Verdict{{Task: "cook omelets", OK: true}},
		}}},
		{"plan", 4, Envelope{From: "host-a", To: "host-b", ReqID: 45, Workflow: "wf-1", Body: Plan{Segments: []PlanSegment{{
			Task: "cook omelets", Initiator: "host-a", Routes: []Route{{Label: "omelets", To: "host-a"}},
		}}}}},
		{"call-for-bids-batch", 5, Envelope{From: "host-a", To: "host-b", ReqID: 46, Workflow: "wf-1", Body: CallForBidsBatch{
			Metas: []TaskMeta{meta},
		}}},
		{"label-transfer-4k", 7, benchLabelTransfer4K()},
	} {
		t.Run(c.name, func(t *testing.T) {
			data, err := Encode(c.env)
			if err != nil {
				t.Fatal(err)
			}
			testutil.AllocBound(t, c.max, func() {
				if _, err := Decode(data); err != nil {
					t.Error(err)
				}
			})
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
