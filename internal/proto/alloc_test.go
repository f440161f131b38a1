package proto

import (
	"bytes"
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
// path: its two maps are written in sorted key order without allocating
// a key slice for either.
func TestEncodeToPlanAllocFree(t *testing.T) {
	env := Envelope{From: "host-a", To: "host-b", ReqID: 45, Workflow: "wf-1", Body: Plan{Segments: []PlanSegment{{
		Task: "cook omelets", Initiator: "host-a",
		InputSources: map[model.LabelID]Addr{"eggs": "host-a", "cheese": "host-c"},
		OutputSinks:  map[model.LabelID][]Addr{"omelets": {"host-a"}, "shells": {"host-c", "host-d"}},
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
// allocation on every row.
func TestDecodeAllocBounds(t *testing.T) {
	at := time.Unix(1700000000, 0)
	meta := TaskMeta{Task: "cook omelets", Inputs: []model.LabelID{"eggs"}, Outputs: []model.LabelID{"omelets"}, Start: at, End: at.Add(time.Hour)}
	for _, c := range []struct {
		name string
		max  float64
		env  Envelope
	}{
		{"fragment-query", 3, benchEnvelope()},
		{"cancel", 2, Envelope{From: "host-a", To: "host-b", Workflow: "wf-1", Body: Cancel{Task: "cook omelets"}}},
		{"bid-batch", 4, benchBidEnvelope()},
		{"award", 4, Envelope{From: "host-a", To: "host-b", ReqID: 44, Workflow: "wf-1", Body: Award{Meta: meta}}},
		{"fragment-reply", 7, Envelope{From: "host-b", To: "host-a", ReqID: 42, Workflow: "wf-1", Body: FragmentReply{
			Fragments: []*model.Fragment{{Name: "omelet bar", Tasks: []model.Task{{
				ID: "cook omelets", Inputs: []model.LabelID{"eggs"}, Outputs: []model.LabelID{"omelets"},
			}}}},
		}}},
		{"award-ack", 3, Envelope{From: "host-b", To: "host-a", ReqID: 44, Workflow: "wf-1", Body: AwardAck{
			Verdicts: []Verdict{{Task: "cook omelets", OK: true}},
		}}},
		{"plan", 8, Envelope{From: "host-a", To: "host-b", ReqID: 45, Workflow: "wf-1", Body: Plan{Segments: []PlanSegment{{
			Task: "cook omelets", Initiator: "host-a",
			InputSources: map[model.LabelID]Addr{"eggs": "host-a"},
			OutputSinks:  map[model.LabelID][]Addr{"omelets": {"host-a"}},
		}}}}},
		{"call-for-bids-batch-sole", 6, Envelope{From: "host-a", To: "host-b", ReqID: 46, Workflow: "wf-1", Body: CallForBidsBatch{
			Metas: []TaskMeta{meta}, Sole: []model.TaskID{"cook omelets"},
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
